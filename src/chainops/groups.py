"""Group descriptors for MacLane models: Sigma_n, C_n, and products.

Group elements are lightweight values: permutations for Sigma_n,
exponents 0..n-1 for C_n (the class of T^i), and tuples for products.

`generators()` is a tuple of non-identity elements whose products (words,
with no inverses needed in a finite group) give every element: the
transposition (1 2) and the n-cycle (1 2 ... n) for Sigma_n, so two for
every n >= 3 and (1 2) alone for n = 2, the class 1 of T for C_n, and
for a product each factor's generators with the identity in the other
slots.  The trivial groups have none.  `procedure.verify_contracted`
proves equivariance of d from these and the action law, so its cost per
generator grows with their number, not with the group's order.
"""

import operator
from itertools import product as _product

from .errors import InvalidInput
from .perms import Perm, all_perms


class SymmetricGroup:
    def __init__(self, n):
        if n < 1:
            raise InvalidInput("arity must be >= 1")
        self.n = n
        self.identity = Perm.identity(n)

    # a * b, with no Python frame of its own: the action law and the
    # MacLane action compose permutations in their inner loops
    mul = staticmethod(operator.mul)

    def inv(self, a):
        return a.inverse()

    def elements(self):
        return all_perms(self.n)

    def generators(self):
        """The transposition (1 2) and, for n >= 3, the n-cycle (1 2 ... n)."""
        n = self.n
        if n == 1:
            return ()
        swap = Perm._trusted((2, 1, *range(3, n + 1)))
        return (swap,) if n == 2 else (swap, Perm._trusted((*range(2, n + 1), 1)))

    def order(self):
        out = 1
        for i in range(2, self.n + 1):
            out *= i
        return out

    def is_identity(self, a):
        return a.is_identity()

    def parity(self, a):
        return a.parity()

    def encode(self, a):
        return list(a)

    def decode(self, data):
        """The permutation of 1..n with these images, or InvalidInput."""
        if not isinstance(data, (tuple, list)):
            raise InvalidInput(f"{data!r} is not a permutation of 1..{self.n}")
        if len(data) != self.n:
            raise InvalidInput(f"{tuple(data)} is not a permutation of 1..{self.n}")
        return Perm(data)

    def format(self, a):
        return " ".join(str(v) for v in a)

    def __eq__(self, other):
        return isinstance(other, SymmetricGroup) and other.n == self.n

    def __hash__(self):
        return hash(("S", self.n))

    def __repr__(self):
        return f"Sigma_{self.n}"


class CyclicGroup:
    def __init__(self, n):
        if n < 1:
            raise InvalidInput("order must be >= 1")
        self.n = n
        self.identity = 0

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def elements(self):
        return range(self.n)

    def generators(self):
        """The class 1 of T (none for the trivial group C_1)."""
        return (1,) if self.n > 1 else ()

    def order(self):
        return self.n

    def is_identity(self, a):
        return a % self.n == 0

    def encode(self, a):
        return a

    def decode(self, data):
        """The class of T^data; data must be an int."""
        if type(data) is not int:
            raise InvalidInput(f"{data!r} is not an exponent of T")
        return data % self.n

    def format(self, a):
        return str(a % self.n)

    def __eq__(self, other):
        return isinstance(other, CyclicGroup) and other.n == self.n

    def __hash__(self):
        return hash(("C", self.n))

    def __repr__(self):
        return f"C_{self.n}"


class ProductGroup:
    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise InvalidInput("empty product group")
        self.identity = tuple(g.identity for g in self.factors)

    def mul(self, a, b):
        return tuple(g.mul(x, y) for g, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(g.inv(x) for g, x in zip(self.factors, a))

    def elements(self):
        for combo in _product(*(tuple(g.elements()) for g in self.factors)):
            yield combo

    def generators(self):
        """Each factor's generators, with the identity in the other slots."""
        out = []
        for i, g in enumerate(self.factors):
            for s in g.generators():
                out.append(self.identity[:i] + (s,) + self.identity[i + 1 :])
        return tuple(out)

    def order(self):
        out = 1
        for g in self.factors:
            out *= g.order()
        return out

    def is_identity(self, a):
        return all(g.is_identity(x) for g, x in zip(self.factors, a))

    def encode(self, a):
        return [g.encode(x) for g, x in zip(self.factors, a)]

    def decode(self, data):
        """One element per factor, each decoded by its factor."""
        if not isinstance(data, (tuple, list)) or len(data) != len(self.factors):
            raise InvalidInput(f"{data!r} is not an element of {self!r}")
        return tuple(g.decode(x) for g, x in zip(self.factors, data))

    def format(self, a):
        return "(" + ",".join(g.format(x) for g, x in zip(self.factors, a)) + ")"

    def __eq__(self, other):
        return isinstance(other, ProductGroup) and other.factors == self.factors

    def __hash__(self):
        return hash(("prod", self.factors))

    def __repr__(self):
        return " x ".join(repr(g) for g in self.factors)
