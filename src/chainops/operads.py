"""Operad structure maps: the symmetric-group operad, the Barratt-Eccles
operad on N(ESigma_n), and the surjection operad on S(n).

The recursive twisted-equivariant engine defines O_B(b) = H_s O_B(db)
on basis tensors and extends by O_B(g^ x) = O_Sigma(g^) O_B(tau_g x);
the closed forms (EZ followed by vertexwise O_Sigma for Barratt-Eccles,
k-divisions with caesura-shuffle signs for the Berger-Fresse surjection
operad) are implemented independently and tested against it.  The ms
and aj surjection structure maps are obtained by conjugating with the
flavor isomorphisms.
"""

from itertools import combinations_with_replacement, product as _product

from .complexes import TensorComplex, boundary
from .errors import InvalidInput
from .maclane import sym_eg
from .perms import Perm, block_perm, koszul_permute, koszul_sign, permute_by
from .procedure import RecursiveMap
from .rings import ZZ
from .simplex import ez_columns
from .surjections import caesuras, iso, surjection_complex


def sigma_compose(u, vs):
    """O_Sigma(u; v_1, ..., v_r): permute within blocks, then blocks by u."""
    if u.n != len(vs):
        raise InvalidInput("outer arity does not match the number of inner inputs")
    sizes = [v.n for v in vs]
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    out = []
    for i in range(1, u.n + 1):
        b = u(i)
        base = starts[b - 1]
        out.extend(base + vs[b - 1](j) for j in range(1, sizes[b - 1] + 1))
    return Perm._trusted(tuple(out))


def oplus(vs):
    """v_1 + ... + v_r acting blockwise (the direct-sum permutation)."""
    return sigma_compose(Perm.identity(len(vs)), vs)


# -- the recursive twisted-equivariant engine -------------------------------------


class BarrattEcclesComponents:
    """The family n -> N(ESigma_n) the engine builds Barratt-Eccles maps on."""

    name = "barratt-eccles"

    def component(self, n):
        return sym_eg(n)


class SurjectionComponents:
    """The family n -> S^flavor(n) the engine builds surjection maps on."""

    def __init__(self, flavor="bf"):
        self.flavor = flavor
        self.name = f"surjection-{flavor}"

    def component(self, n):
        return surjection_complex(self.flavor, n)


class TwistedOperadMap(RecursiveMap):
    """The standard twisted-equivariant procedure structure map O_B,
    memoized on (arities, basis tensor)."""

    def __init__(self, components, ring=ZZ):
        super().__init__(ring)
        self.components = components
        self._domains = {}

    def domain(self, arities):
        dom = self._domains.get(arities)
        if dom is None:
            factors = (self.components.component(arities[0]),) + tuple(
                self.components.component(s) for s in arities[1:]
            )
            dom = self._domains[arities] = TensorComplex(factors)
        return dom

    def target(self, arities):
        return self.components.component(sum(arities[1:]))

    def seed(self, key):
        arities, gen = key
        if self.domain(arities).degree_of(gen) != 0:
            return None
        target = self.target(arities)
        return target.el(self.ring, target.basepoint_gen())

    def defect(self, key):
        arities, gen = key
        return self.apply(arities, boundary(self.domain(arities).el(self.ring, gen)))

    def split(self, gen, arities):
        """O_B(g^ x) = O_Sigma(g^) O_B(tau_g x): the inner inputs of the
        basis tensor are reordered by g^-1 with its Koszul sign."""
        dom = self.domain(arities)
        ghat, coeff, b = dom.decompose(gen)
        g, hs = ghat[0], ghat[1:]
        inner = b[1:]
        if not g.is_identity():
            ginv = g.inverse()
            degrees = [f.degree_of(y) for f, y in zip(dom.factors[1:], inner)]
            sign, inner = koszul_permute(ginv, inner, degrees)
            coeff *= sign
            arities = (arities[0],) + tuple(permute_by(ginv, arities[1:]))
        osig = sigma_compose(g, list(hs))
        return (arities, (b[0],) + inner), coeff, None if osig.is_identity() else osig

    def apply(self, arities, x):
        return self._map(x, self.target(arities), 0, arities)


def engine_compose(engine, outer, inners):
    """Evaluate a TwistedOperadMap on elements (outer; inner_1, ..., inner_r)."""

    def arity_of(e):
        c = e.complex
        return c.group.n

    r = arity_of(outer)
    if r != len(inners):
        raise InvalidInput("outer arity does not match the number of inner inputs")
    arities = (r,) + tuple(arity_of(y) for y in inners)
    dom = engine.domain(arities)
    from .complexes import tensor_elements

    x = tensor_elements(dom, outer, *inners)
    return engine.apply(arities, x)


# -- closed form: Barratt-Eccles ----------------------------------------------------


def be_compose_terms(gen, arities):
    """EZ of the tuple tensor followed by vertexwise O_Sigma."""
    return [
        (sign, tuple(sigma_compose(col[0], list(col[1:])) for col in cols))
        for sign, cols in ez_columns(gen)
    ]


def _inputs_ring(outer, ring):
    """The ring of the inputs, which a composite is over; a ring passed
    explicitly must be that ring."""
    if ring is not None and ring != outer.ring:
        raise InvalidInput(f"inputs are over {outer.ring}, not {ring}")
    return outer.ring


def be_compose(outer, inners, ring=None):
    """O_E: N(ESigma_r) (x) N(ESigma_s1) (x) ... -> N(ESigma_s), closed form,
    over the inputs' ring."""
    _inputs_ring(outer, ring)
    r = outer.complex.group.n
    if r != len(inners):
        raise InvalidInput("outer arity does not match the number of inner inputs")
    sizes = tuple(y.complex.group.n for y in inners)
    s = sum(sizes)
    target = sym_eg(s)
    dom = TensorComplex((outer.complex,) + tuple(y.complex for y in inners))
    from .complexes import tensor_elements

    x = tensor_elements(dom, outer, *inners)
    arities = (r,) + sizes
    return x.map_terms(
        lambda gen: be_compose_terms(gen, arities), codomain=target
    )


# -- closed form: the surjection operad (Berger-Fresse signs) ------------------------


def k_divisions(y, k):
    """All k-divisions of the tuple y: k subtuples overlapping in k-1
    repeated entries."""
    m = len(y)
    for cuts in combinations_with_replacement(range(1, m + 1), k - 1):
        subs = []
        prev = 1
        for c in cuts:
            subs.append(y[prev - 1 : c])
            prev = c
        subs.append(y[prev - 1 :])
        yield tuple(subs)


def division_substitution(x, divisions):
    """D x: replace the successive i-entries of x by the division subtuples
    of y_i; record the x-caesura positions (final entries of non-final
    subtuples) and the value tag of every position."""
    counters = [0] * (len(divisions) + 1)
    seq = []
    x_caesura_pos = set()
    tags = []
    for v in x:
        sub = divisions[v - 1][counters[v - 1]]
        is_final = counters[v - 1] == len(divisions[v - 1]) - 1
        counters[v - 1] += 1
        seq.extend(sub)
        tags.extend([v] * len(sub))
        if not is_final:
            x_caesura_pos.add(len(seq))
    return tuple(seq), x_caesura_pos, tags


def division_sign(dx, x_caesura_pos, tags):
    """(-1)^sh(C_x, C_D): parity of the stable shuffle sorting the tagged
    caesura word of D x into (x-caesuras, y_1-caesuras, ..., y_r-caesuras).

    An x-caesura (rank 0) preceded by any y-caesura is an inversion, and
    so is a y_j-caesura preceded by a y_i-caesura with i > j; omitting
    the second kind breaks d.Phi = Phi.d at total degree 3.
    """
    word = [
        0 if p in x_caesura_pos else tags[p - 1] for p in caesuras(dx)
    ]
    count = 0
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            if word[a] > word[b]:
                count += 1
    return -1 if count % 2 else 1


def surj_compose_bf_terms(x, ys):
    """Summands of Phi(x; y_1, ..., y_r) in S^bf with caesura-shuffle signs."""
    r = max(x)
    counts = [0] * r
    for v in x:
        counts[v - 1] += 1
    shifts = [0]
    for y in ys:
        shifts.append(shifts[-1] + max(y))
    shifted = [tuple(v + shifts[i] for v in y) for i, y in enumerate(ys)]
    out = []
    for combo in _product(
        *(list(k_divisions(y, counts[i])) for i, y in enumerate(shifted))
    ):
        dx, xpos, tags = division_substitution(x, combo)
        out.append((division_sign(dx, xpos, tags), dx))
    return out


def surj_compose_terms(gen, arities):
    """O_S^bf on a pure tensor (x, y_1, ..., y_r) of generators.

    The division formula applies verbatim when the outer x is
    a basis generator; a general x = g.b is handled by the twisted
    equivariance O(g b; y_i) = kappa . g_*(s_i) O(b; y_g(1), ...), with
    the Koszul sign kappa of the tau_g factor permutation.
    """
    x, ys = gen[0], list(gen[1:])
    r = arities[0]
    sizes = list(arities[1:])
    comp = surjection_complex("bf", r)
    g = comp.first_occurrence_perm(x)
    if g.is_identity():
        return surj_compose_bf_terms(x, ys)
    degrees = [len(y) - s for y, s in zip(ys, sizes)]
    kappa = koszul_sign(g.inverse(), degrees)
    reordered = [ys[g(i) - 1] for i in range(1, r + 1)]
    b = tuple(g.inverse()(v) for v in x)
    base = surj_compose_bf_terms(b, reordered)
    blocks = block_perm(g, sizes)
    return [
        (kappa * c, tuple(blocks(v) for v in t)) for c, t in base
    ]


def surj_compose(flavor, outer, inners, ring=None):
    """O_S on S^flavor over the inputs' ring; bf natively, ms/aj by
    conjugating the isomorphisms."""
    _inputs_ring(outer, ring)
    if flavor != "bf":
        outer_bf = iso(flavor, "bf", outer)
        inners_bf = [iso(flavor, "bf", y) for y in inners]
        return iso("bf", flavor, surj_compose("bf", outer_bf, inners_bf))
    r = outer.complex.n
    if r != len(inners):
        raise InvalidInput("outer arity does not match the number of inner inputs")
    sizes = tuple(y.complex.n for y in inners)
    s = sum(sizes)
    target = surjection_complex("bf", s)
    dom = TensorComplex((outer.complex,) + tuple(y.complex for y in inners))
    from .complexes import tensor_elements

    x = tensor_elements(dom, outer, *inners)
    arities = (r,) + sizes
    return x.map_terms(
        lambda gen: surj_compose_terms(gen, arities), codomain=target
    )


def partial_compose(flavor, i, x, y, ring=None):
    """O_i(x; y): the structure map with all inner inputs trivial except the
    i-th, over the inputs' ring."""
    ring = _inputs_ring(x, ring)
    r = x.complex.n
    if not 1 <= i <= r:
        raise InvalidInput(f"slot {i} outside 1..{r}")
    unit = surjection_complex(flavor, 1).el(ring, (1,))
    inners = [unit] * r
    inners[i - 1] = y
    return surj_compose(flavor, x, inners, ring)


def be_engine(ring=ZZ):
    return TwistedOperadMap(BarrattEcclesComponents(), ring)


def surj_engine(flavor="bf", ring=ZZ):
    return TwistedOperadMap(SurjectionComponents(flavor), ring)


def verify_operad(max_degree=2):
    """Axiom report for the symmetric-group, Barratt-Eccles, and surjection
    operads: equivariance, units, associativity squares, goldens."""
    from .suites import operads_suite

    return operads_suite(max_degree)


def verify_morphisms():
    """Report for the quotient square (table reduction) and the square into
    the functorial coendomorphism operad."""
    from .suites import morphism_squares_suite

    return morphism_squares_suite()
