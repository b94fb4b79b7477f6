"""MacLane models N_*(EG), coinvariants N_*(BG), joins, and induced maps.

Generators are nondegenerate tuples of group elements; the contraction
prepends the identity.  Coinvariant classes are normalized by left
translation to first entry e, with an optional parity twist for
symmetric groups.
"""

from functools import lru_cache
from operator import eq

from .complexes import ChainComplex, TensorComplex, augment
from .elements import Element, collect
from .errors import InvalidInput
from .groups import CyclicGroup, ProductGroup, SymmetricGroup


class MacLaneComplex(ChainComplex):
    def __init__(self, group):
        self.group = group
        self.name = f"N(E{group!r})"

    def normalize(self, gen):
        """None for the empty tuple and for two equal neighbours."""
        gen = tuple(gen)
        if not gen or any(map(eq, gen, gen[1:])):
            return None
        return gen

    def degree_of(self, gen):
        return len(gen) - 1

    def key(self, gen):
        return tuple(self.group.key(g) for g in gen)

    def format_gen(self, gen):
        return "(" + "; ".join(self.group.format(g) for g in gen) + ")"

    def encode_gen(self, gen):
        return [self.group.encode(g) for g in gen]

    def boundary_terms(self, gen):
        if len(gen) <= 1:
            return []
        return [((-1) ** j, gen[:j] + gen[j + 1 :]) for j in range(len(gen))]

    def contraction_terms(self, gen):
        return [(1, (self.group.identity,) + gen)]

    def basepoint_gen(self):
        return (self.group.identity,)

    def act_terms(self, g, gen):
        mul = self.group.mul
        return [(1, tuple(mul(g, x) for x in gen))]

    def decompose(self, gen):
        g0 = gen[0]
        if self.group.is_identity(g0):
            return g0, 1, gen
        inv = self.group.inv(g0)
        mul = self.group.mul
        return g0, 1, tuple(mul(inv, x) for x in gen)

    def basis(self, degree):
        elements = list(self.group.elements())
        key = self.group.key

        def rec(prefix, remaining):
            if remaining == 0:
                yield tuple(prefix)
                return
            last = key(prefix[-1]) if prefix else None
            for g in elements:
                if last is not None and key(g) == last:
                    continue
                prefix.append(g)
                yield from rec(prefix, remaining - 1)
                prefix.pop()

        yield from rec([], degree + 1)

    def gbasis(self, degree):
        for gen in self.basis(degree):
            if self.group.is_identity(gen[0]):
                yield gen

    def basis_size(self, degree):
        n = self.group.order()
        return n * (n - 1) ** degree

    def pattern_reps(self, degree):
        """Relabeling classes of basis tuples.

        A tuple's behavior under d, h, iota, rho, and tuple equality
        depends only on which entries coincide and which equal e, so
        one representative per (partition, e-slot) class suffices; the
        class size is a falling factorial on the non-identity elements.
        """
        order = self.group.order()
        pool = []
        for g in self.group.elements():
            if not self.group.is_identity(g):
                pool.append(g)
            if len(pool) > degree + 1:
                break
        e = self.group.identity

        def falling(n, k):
            out = 1
            for i in range(k):
                out *= n - i
            return out

        def rec(labels, used):
            if len(labels) == degree + 1:
                for e_class in range(-1, used):
                    non_e = used if e_class < 0 else used - 1
                    if non_e > len(pool):
                        continue
                    table = []
                    i = 0
                    for c in range(used):
                        if c == e_class:
                            table.append(e)
                        else:
                            table.append(pool[i])
                            i += 1
                    yield tuple(table[c] for c in labels), falling(order - 1, non_e)
                return
            for c in range(used + 1):
                if labels and labels[-1] == c:
                    continue
                yield from rec(labels + [c], max(used, c + 1))

        yield from rec([], 0)

    def __eq__(self, other):
        return isinstance(other, MacLaneComplex) and other.group == self.group

    def __hash__(self):
        return hash(("EG", self.group))


class CoinvariantComplex(ChainComplex):
    """N_*(BG) = G\\N_*(EG), optionally with the parity twist of the action."""

    def __init__(self, group, twist=False):
        if twist and not isinstance(group, SymmetricGroup):
            raise InvalidInput("parity twist needs a symmetric group")
        self.group = None
        self.base_group = group
        self.eg = maclane_complex(group)
        self.twist = twist
        tw = "~" if twist else ""
        self.name = f"{tw}N(B{group!r})"

    def class_terms(self, gen):
        """Normal form of an EG tuple: left-translate g_0 to e."""
        g0 = gen[0]
        coeff = 1
        if not self.base_group.is_identity(g0):
            inv = self.base_group.inv(g0)
            mul = self.base_group.mul
            gen = tuple(mul(inv, x) for x in gen)
            if self.twist:
                coeff = self.base_group.parity(g0)
        return [(coeff, gen)]

    def normalize(self, gen):
        """None unless gen is a nondegenerate EG tuple with first entry e."""
        gen = self.eg.normalize(gen)
        if gen is None or not self.base_group.is_identity(gen[0]):
            return None
        return gen

    def degree_of(self, gen):
        return len(gen) - 1

    def key(self, gen):
        return tuple(self.base_group.key(g) for g in gen)

    def format_gen(self, gen):
        return "[" + "; ".join(self.base_group.format(g) for g in gen) + "]"

    def encode_gen(self, gen):
        return [self.base_group.encode(g) for g in gen]

    def boundary_terms(self, gen):
        if len(gen) <= 1:
            return []
        out = []
        for j in range(len(gen)):
            face = gen[:j] + gen[j + 1 :]
            for c, cls in self.class_terms(face):
                out.append(((-1) ** j * c, cls))
        return out

    def basepoint_gen(self):
        return (self.base_group.identity,)

    def basis(self, degree):
        yield from self.eg.gbasis(degree)

    def __eq__(self, other):
        return (
            isinstance(other, CoinvariantComplex)
            and other.base_group == self.base_group
            and other.twist == self.twist
        )

    def __hash__(self):
        return hash(("BG", self.base_group, self.twist))


@lru_cache(maxsize=None)
def maclane_complex(group):
    return MacLaneComplex(group)


@lru_cache(maxsize=None)
def coinvariant_complex(group, twist=False):
    return CoinvariantComplex(group, twist)


def sym_eg(n):
    return maclane_complex(SymmetricGroup(n))


def cyc_eg(n):
    return maclane_complex(CyclicGroup(n))


def coinvariants(x, twist=False):
    """Project an element of N_*(EG) to N_*(BG) (parity twist optional)."""
    src = x.complex
    if not isinstance(src, MacLaneComplex):
        raise InvalidInput("coinvariants expects a MacLane element")
    target = coinvariant_complex(src.group, twist)
    return x.map_terms(target.class_terms, codomain=target)


# -- AW / EZ for MacLane models ------------------------------------------------


def product_model(Hc, Gc):
    """N(E(H x G)) with generators tuples of pairs."""
    return maclane_complex(ProductGroup((Hc.group, Gc.group)))


def aw_maclane(x):
    """AW: N(E(HxG)) -> N(EH) (x) N(EG), front faces tensor back faces."""
    src = x.complex
    if not isinstance(src, MacLaneComplex) or not isinstance(
        src.group, ProductGroup
    ):
        raise InvalidInput("aw_maclane expects an element of N(E(HxG))")
    factors = tuple(maclane_complex(g) for g in src.group.factors)
    if len(factors) != 2:
        raise InvalidInput("aw_maclane expects a two-factor product group")
    target = TensorComplex(factors)

    def terms(gen):
        xs = tuple(p[0] for p in gen)
        ys = tuple(p[1] for p in gen)
        return [(1, (xs[: j + 1], ys[j:])) for j in range(len(gen))]

    return x.map_terms(terms, codomain=target)


def ez_maclane(x):
    """EZ: N(EH) (x) N(EG) -> N(E(HxG)), signed lattice paths."""
    from .simplex import ez_columns

    src = x.complex
    if not isinstance(src, TensorComplex) or len(src.factors) != 2:
        raise InvalidInput("ez_maclane expects a two-factor tensor")
    target = maclane_complex(
        ProductGroup(tuple(f.group for f in src.factors))
    )

    def terms(gen):
        return [(sign, tuple(cols)) for sign, cols in ez_columns(gen)]

    return x.map_terms(terms, codomain=target)


def eg_diagonal(x, arity=2):
    """The iterated Alexander-Whitney diagonal on N_*(EG)."""
    src = x.complex
    if not isinstance(src, MacLaneComplex):
        raise InvalidInput("eg_diagonal expects a MacLane element")
    target = TensorComplex((src,) * arity)

    def terms(gen):
        from .simplex import multidiagonal_terms

        return multidiagonal_terms(arity, gen)

    return x.map_terms(terms, codomain=target)


# -- joins ------------------------------------------------------------------


def join(x, y):
    """Concatenation join N_p(EG) (x) N_q(EG) -> N_(p+q+1)(EG), bilinear."""
    if x.complex != y.complex:
        raise InvalidInput("join needs both elements in the same MacLane model")
    if x.ring != y.ring:
        raise InvalidInput("join over mixed rings")
    pairs = (
        (cx * cy, gx + gy) for gx, cx in x.terms.items() for gy, cy in y.terms.items()
    )
    return collect(x.complex, x.ring, x.degree + y.degree + 1, pairs)


class JoinHomotopy:
    """J(x) = sum_j (-1)^j phi0(front_j) * phi1(back_j), the front/back join.

    Requires both maps to send vertices to augmentation-1 chains; then
    dJ + Jd = phi1 - phi0.
    """

    def __init__(self, phi0, phi1, domain, codomain, ring):
        self.phi0 = phi0
        self.phi1 = phi1
        self.domain = domain
        self.codomain = codomain
        self.ring = ring
        self._checked = set()

    def _check_vertex(self, v):
        if v in self._checked:
            return
        for phi in (self.phi0, self.phi1):
            val = phi(self.domain.el(self.ring, (v,)))
            if augment(val) != self.ring.normalize(1):
                raise InvalidInput(
                    "join homotopy needs augmentation 1 on vertex images"
                )
        self._checked.add(v)

    def _on_gen(self, gen):
        for v in gen:
            self._check_vertex(v)
        pairs = []
        for j in range(len(gen)):
            front = self.phi0(self.domain.el(self.ring, gen[: j + 1]))
            back = self.phi1(self.domain.el(self.ring, gen[j:]))
            sign = (-1) ** j
            pairs.extend((sign * c, g) for g, c in join(front, back).terms.items())
        return collect(self.codomain, self.ring, len(gen), pairs)

    def __call__(self, x):
        if not isinstance(x, Element):
            return self._on_gen(x)
        if x.is_zero():
            return self.codomain.zero(self.ring, x.degree + 1)
        return x.map_terms(self._on_gen, codomain=self.codomain)


def join_homotopy(phi0, phi1, domain, codomain, ring):
    return JoinHomotopy(phi0, phi1, domain, codomain, ring)


# -- maps induced by set functions of groups -----------------------------------


class InducedMap:
    """Entrywise application of a pointed set function G -> G'."""

    def __init__(self, fn, domain, codomain, ring):
        if codomain.group is None or domain.group is None:
            raise InvalidInput("induced maps need MacLane models on both sides")
        if not codomain.group.is_identity(fn(domain.group.identity)):
            raise InvalidInput("induced map must preserve identity elements")
        self.fn = fn
        self.domain = domain
        self.codomain = codomain
        self.ring = ring

    def __call__(self, x):
        if not isinstance(x, Element):
            x = self.domain.el(self.ring, x)
        fn = self.fn
        return x.map_terms(
            lambda gen: [(1, tuple(fn(g) for g in gen))], codomain=self.codomain
        )


def induced_map(fn, domain, codomain, ring):
    return InducedMap(fn, domain, codomain, ring)


def cyclic_into_symmetric(p):
    """T -> (2, 3, ..., p, 1): the inclusion C_p -> Sigma_p on MacLane models."""
    from .perms import Perm

    t = Perm._trusted(tuple(range(2, p + 1)) + (1,))

    def fn(i):
        out = Perm.identity(p)
        for _ in range(i % p):
            out = t * out
        return out

    return fn


def power_map(ell, n):
    """The ell-th power set map on C_n."""

    def fn(i):
        return (i * ell) % n

    return fn
