"""The minimal free resolution M_* for a cyclic group C_n.

Generators are pairs (i, k) standing for T^i y_k.  Boundaries alternate
between T - 1 and the norm N = 1 + T + ... + T^(n-1); the contraction
is the four-case staircase formula.  The chain maps phi: M -> N(EC),
pi: N(EC) -> M, the power map lambda, and the diagonal are the closed
formulas, each with the recursive construction available as an oracle.
"""

from functools import lru_cache

from .complexes import ChainComplex, TensorComplex, law_cases
from .elements import built
from .errors import InvalidInput
from .groups import CyclicGroup
from .maclane import MacLaneComplex, cyc_eg
from .rings import ZZ


class MinimalComplex(ChainComplex):
    def __init__(self, n):
        if n < 2:
            raise InvalidInput("cyclic order must be >= 2")
        self.n = n
        self.group = CyclicGroup(n)
        self.name = f"M({n})"

    def validate(self, gen):
        """(i, k) with integer i and k; normalize reads k < 0 as degenerate."""
        gen = self.entries(gen)
        if len(gen) != 2 or any(type(v) is not int for v in gen):
            raise InvalidInput(f"a generator of {self.name} is a pair of integers, not {gen!r}")
        return gen

    def normalize(self, gen):
        i, k = gen
        if k < 0:
            return None
        return (i % self.n, k)

    def degree_of(self, gen):
        return gen[1]

    def format_gen(self, gen):
        i, k = gen
        return f"T^{i}.y{k}" if i else f"y{k}"

    def boundary_terms(self, gen):
        i, k = gen
        if k == 0:
            return []
        if k % 2:
            # d y_{2k-1} = (T - 1) y_{2k-2}
            return [(1, ((i + 1) % self.n, k - 1)), (-1, (i, k - 1))]
        # d y_{2k} = N y_{2k-1}
        return [(1, (j, k - 1)) for j in range(self.n)]

    def contraction_terms(self, gen):
        i, k = gen
        if k % 2 == 0:
            return [(1, (j, k + 1)) for j in range(i)]
        if i == self.n - 1:
            return [(1, (0, k + 1))]
        return []

    def basepoint_gen(self):
        return (0, 0)

    def act_terms(self, a, gen):
        i, k = gen
        return [(1, ((i + a) % self.n, k))]

    def action_law(self, normal=None, acts=None):
        """The rotation of the exponent i: the law is the group table of
        C_n, seen on the degree-0 generators T^i y_0."""
        return law_cases(self, self.basis(0), normal, acts)

    def decompose(self, gen):
        i, k = gen
        return i, 1, (0, k)

    def basis(self, degree):
        if degree < 0:
            return
        for i in range(self.n):
            yield (i, degree)

    def gbasis(self, degree):
        if degree >= 0:
            yield (0, degree)

    def __eq__(self, other):
        return isinstance(other, MinimalComplex) and other.n == self.n

    def __hash__(self):
        return hash(("M", self.n))


@lru_cache(maxsize=None)
def minimal_complex(n):
    return MinimalComplex(n)


# -- phi : M_* -> N_*(EC), the closed summation formula --------------------------


def _phi_terms(n, k):
    """Summands of phi(y_k) as exponent tuples, degeneracies included."""
    if k == 0:
        yield (0,)
        return
    pairs, head = divmod(k, 2)
    if head:
        prefix = (0, 1 % n)
    else:
        prefix = (0,)

    def rec(prefix, remaining):
        if remaining == 0:
            yield prefix
            return
        for j in range(n):
            yield from rec(prefix + (j, (j + 1) % n), remaining - 1)

    yield from rec(prefix, pairs)


def phi_to_EC(x):
    """The equivariant chain map phi: M_* -> N_*(EC_n), phi(y_k) = x_k."""
    src = x.complex
    if not isinstance(src, MinimalComplex):
        raise InvalidInput("phi_to_EC expects an element of M_*")
    n = src.n
    target = cyc_eg(n)

    def terms(gen):
        i, k = gen
        return [(1, tuple((v + i) % n for v in t)) for t in _phi_terms(n, k)]

    return x.map_terms(terms, codomain=target)


def canonical_class(n, k, ring=ZZ):
    """x_k = phi(y_k) in N_*(EC_n)."""
    return phi_to_EC(minimal_complex(n).el(ring, (0, k)))


# -- pi : N_*(EC) -> M_*, the cyclic-interval formula ------------------------------


def _cyc_interval(a, c, n):
    """The open cyclic interval from a to c (counterclockwise), as a list."""
    span = (c - a) % n
    if span == 0:
        return [(a + t) % n for t in range(1, n)]
    return [(a + t) % n for t in range(1, span)]


def _cyc_between(a, x, c, n):
    span = (c - a) % n
    pos = (x - a) % n
    if span == 0:
        return pos != 0
    return 0 < pos < span


def pi_from_EC(x):
    """The retraction pi: N_*(EC_n) -> M_* commuting with contractions."""
    src = x.complex
    if not isinstance(src, MacLaneComplex):
        raise InvalidInput("pi_from_EC expects an element of N(EC_n)")
    group = src.group
    if not isinstance(group, CyclicGroup):
        raise InvalidInput("pi_from_EC expects a cyclic MacLane model")
    n = group.n
    target = minimal_complex(n)

    def terms(gen):
        d = len(gen) - 1
        i = [v % n for v in gen]
        if d % 2 == 0:
            k = d // 2
            for j in range(1, k + 1):
                if not _cyc_between(i[2 * j], i[2 * j - 1], i[2 * j - 2], n):
                    return []
            return [(1, (i[0], d))]
        k = (d + 1) // 2
        for j in range(1, k):
            if not _cyc_between(i[2 * j + 1], i[2 * j], i[2 * j - 1], n):
                return []
        return [(1, (t, d)) for t in _cyc_interval((i[0] - 1) % n, i[1], n)]

    return x.map_terms(terms, codomain=target)


# -- lambda : the iota_ell-equivariant power map ----------------------------------


def lambda_power(ell, x):
    if ell < 1:
        raise InvalidInput("power must be >= 1")
    src = x.complex
    if not isinstance(src, MinimalComplex):
        raise InvalidInput("lambda_power expects an element of M_*")
    n = src.n

    def terms(gen):
        i, k = gen
        base = (i * ell) % n
        half, odd = divmod(k, 2)
        scale = ell**half
        if odd:
            return [(scale, ((base + t) % n, k)) for t in range(ell)]
        return [(scale, (base, k))]

    return x.map_terms(terms)


# -- the diagonal and its iterates --------------------------------------------------


@lru_cache(maxsize=None)
def minimal_tensor(n, arity):
    return TensorComplex((minimal_complex(n),) * arity)


def _delta_terms(n, gen):
    i, k = gen
    out = []
    if k % 2:
        for a in range(k + 1):
            b = k - a
            shift = 1 if a % 2 else 0
            out.append((1, ((i, a), ((i + shift) % n, b))))
    else:
        half = k // 2
        for a in range(half + 1):
            out.append((1, ((i, 2 * a), (i, k - 2 * a))))
        for j in range(half):
            ell = half - j
            for t in range(1, n):
                for u in range(t):
                    out.append(
                        (1, (((i + u) % n, 2 * j + 1), ((i + t) % n, 2 * ell - 1)))
                    )
    return out


def delta_M(x):
    """Delta: M_* -> M_* (x) M_*, the preferred-contraction diagonal."""
    src = x.complex
    if not isinstance(src, MinimalComplex):
        raise InvalidInput("delta_M expects an element of M_*")
    target = minimal_tensor(src.n, 2)
    return x.map_terms(lambda gen: _delta_terms(src.n, gen), codomain=target)


def multidiagonal_M(arity, x):
    """Delta^(arity) = (Id (x) Delta^(arity-1)) . Delta."""
    if arity < 1:
        raise InvalidInput("diagonal arity must be >= 1")
    src = x.complex
    if not isinstance(src, MinimalComplex):
        raise InvalidInput("multidiagonal_M expects an element of M_*")
    if arity == 1:
        return x
    n = src.n
    target = minimal_tensor(n, arity)

    two = delta_M(x)
    if arity == 2:
        return two

    def expand(gen):
        head, tail = gen
        rest = multidiagonal_M(arity - 1, built(src, x.ring, tail))
        return [(c, (head,) + g) for g, c in rest.terms.items()]

    return two.map_terms(expand, codomain=target)
