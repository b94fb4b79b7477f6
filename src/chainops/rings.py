"""Coefficient rings: exact integers and prime fields.

Coefficients are plain Python ints; a ring object only knows how to
normalize them (identity for Z, reduction to 0..p-1 for F_p).  Python
ints are arbitrary precision, so integer arithmetic never overflows.
"""

from .errors import InvalidInput


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class IntegerRing:
    def normalize(self, c):
        return c

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def to_json(self):
        return {"kind": "Z"}


class PrimeField:
    def __init__(self, p):
        if not _is_prime(p):
            raise InvalidInput(f"modulus {p} is not prime")
        self.p = p

    def normalize(self, c):
        return c % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("Fp", self.p))

    def to_json(self):
        return {"kind": "Fp", "p": self.p}


ZZ = IntegerRing()


def GF(p):
    return PrimeField(p)
