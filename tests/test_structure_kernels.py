"""The per-generator structure kernels of the surjection complexes and the
basis enumerators against the straightforward versions they replaced: the
caesura scan, the sign tables and the contraction rebuilt from scratch for
every q, the recursive enumerators, and the F[G]-bases filtered out of the
whole basis.  Likewise the kernels of the operad composites and engines:
table rows, decompositions, the twisted split, the caesura-shuffle sign
and the tensor input.  The oracles are kept here, apart
from the library, and must agree term by term and in order.  Also: no
family has generators (or relabelling classes) in negative degree, and
enumeration is lazy."""

import time
from functools import lru_cache
from itertools import product, zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.complexes import TensorComplex, tensor_elements
from chainops.groups import CyclicGroup, ProductGroup, SymmetricGroup
from chainops.maclane import coinvariant_complex, cyc_eg, maclane_complex, sym_eg
from chainops.minimal import minimal_complex
from chainops.morphisms import table_rows
from chainops.operads import (
    be_engine,
    division_sign,
    division_substitution,
    k_divisions,
    sigma_compose,
    surj_compose_terms,
    surj_engine,
)
from chainops.perms import Perm, block_perm, koszul_sign
from chainops.rings import GF, ZZ
from chainops.simplex import product_complex, simplex_complex
from chainops.surjections import (
    FLAVORS,
    SurjectionComplex,
    bf_signs,
    caesuras,
    ms_signs,
    surjection_complex,
)

# -- the oracles ----------------------------------------------------------------


def caesuras_oracle(x):
    out = []
    for j, v in enumerate(x):
        if v in x[j + 1 :]:
            out.append(j + 1)
    return out


def bf_signs_oracle(x):
    signs = [0] * len(x)
    last_caesura_sign = {}
    toggle = 1
    recur_set = set(caesuras_oracle(x))
    for j, v in enumerate(x, start=1):
        if j in recur_set:
            signs[j - 1] = toggle
            last_caesura_sign[v] = toggle
            toggle = -toggle
        elif v in last_caesura_sign:
            signs[j - 1] = -last_caesura_sign[v]
    return signs


def ms_signs_oracle(x):
    n = max(x)
    pos = [[] for _ in range(n + 1)]
    for j, v in enumerate(x, start=1):
        pos[v].append(j)
    signs = [0] * len(x)
    current = 1
    for v in range(1, n + 1):
        for t, j in enumerate(pos[v]):
            signs[j - 1] = current * (-1) ** t
        current = current * (-1) ** (len(pos[v]) - 1)
    return signs


def contraction_oracle(flavor, n, gen):
    out = []
    for q in range(n - 1):
        seq = list(gen)
        sign = 1
        dead = False
        for t in range(1, q + 1):
            if seq.count(t) != 1:
                dead = True
                break
            j = seq.index(t) + 1
            if flavor == "aj":
                sign *= (-1) ** (j - 1)
            seq.remove(t)
        if dead:
            continue
        if flavor == "aj":
            sign *= (-1) ** q
        out.append((sign, tuple(range(1, q + 2)) + tuple(seq)))
    return out


def surjection_basis_oracle(n, degree):
    length = n + degree
    if degree < 0:
        return

    def rec(prefix, seen):
        if len(prefix) == length:
            if len(seen) == n:
                yield tuple(prefix)
            return
        if n - len(seen) > length - len(prefix):
            return
        for v in range(1, n + 1):
            if prefix and prefix[-1] == v:
                continue
            prefix.append(v)
            added = v not in seen
            if added:
                seen.add(v)
            yield from rec(prefix, seen)
            if added:
                seen.discard(v)
            prefix.pop()

    yield from rec([], set())


def maclane_basis_oracle(group, degree):
    elements = list(group.elements())

    def rec(prefix, last, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for i, g in enumerate(elements):
            if i == last:
                continue
            prefix.append(g)
            yield from rec(prefix, i, remaining - 1)
            prefix.pop()

    yield from rec([], None, degree + 1)


def gbasis_oracle(cplx, degree):
    """The F[G]-basis generators by filtering the whole basis: first entry
    e in N(EG), first occurrences in the order 1, ..., n in S(n)."""
    for gen in cplx.basis(degree):
        if isinstance(cplx, SurjectionComplex):
            firsts = [v for j, v in enumerate(gen) if v not in gen[:j]]
            if firsts == sorted(firsts):
                yield gen
        elif gen[0] == cplx.group.identity:
            yield gen


def same_stream(xs, ys):
    """Equal, in order, without holding either stream."""
    return all(x == y for x, y in zip_longest(xs, ys, fillvalue=object()))


def assert_kernels_match(gen):
    assert caesuras(gen) == caesuras_oracle(gen)
    assert bf_signs(gen) == bf_signs_oracle(gen)
    assert ms_signs(gen) == ms_signs_oracle(gen)
    n = max(gen)
    for flavor in FLAVORS:
        S = surjection_complex(flavor, n)
        assert S.contraction_terms(gen) == contraction_oracle(flavor, n, gen)


# -- agreement --------------------------------------------------------------------


def test_surjection_kernels_match_oracles_to_arity_4():
    for n in range(1, 5):
        for degree in range(5):
            words = list(surjection_basis_oracle(n, degree))
            for flavor in FLAVORS:
                assert list(surjection_complex(flavor, n).basis(degree)) == words
            for gen in words:
                assert_kernels_match(gen)


def test_maclane_bases_match_oracle():
    for group in (SymmetricGroup(3), SymmetricGroup(4), CyclicGroup(5)):
        E = maclane_complex(group)
        for degree in range(4):
            assert same_stream(E.basis(degree), maclane_basis_oracle(group, degree))


def test_gbases_match_the_filtered_basis():
    cases = [(sym_eg(3), 4), (sym_eg(4), 3), (cyc_eg(5), 4)]
    cases.append((maclane_complex(ProductGroup((CyclicGroup(2), SymmetricGroup(3)))), 3))
    cases += [(surjection_complex(f, n), 4) for f in FLAVORS for n in range(1, 5)]
    for cplx, max_degree in cases:
        for degree in range(max_degree + 1):
            assert same_stream(cplx.gbasis(degree), gbasis_oracle(cplx, degree)), (cplx, degree)
    # the coinvariant basis is the N(ESigma_4) gbasis
    for degree in range(4):
        got = coinvariant_complex(SymmetricGroup(4)).basis(degree)
        assert same_stream(got, gbasis_oracle(sym_eg(4), degree)), degree


def test_group_elements_start_at_the_identity():
    # MacLaneComplex.gbasis is the first block of the basis, whose
    # tuples come in the order of group.elements()
    groups = [SymmetricGroup(n) for n in (1, 2, 4)] + [CyclicGroup(n) for n in (1, 5)]
    groups += [
        ProductGroup((CyclicGroup(2), SymmetricGroup(3))),
        ProductGroup((SymmetricGroup(2), CyclicGroup(3), CyclicGroup(1))),
    ]
    for group in groups:
        first = next(iter(group.elements()))
        assert first == group.identity and group.is_identity(first), group


@settings(max_examples=150, deadline=None)
@given(
    st.permutations(range(1, 6)),
    st.lists(st.integers(1, 5), max_size=7),
    st.integers(0, 6),
)
def test_surjection_kernels_match_oracles_at_arity_5(perm, extra, at):
    # a surjection onto 1..5, with its equal neighbours merged
    word = list(perm[:at]) + extra + list(perm[at:])
    gen = tuple(v for i, v in enumerate(word) if i == 0 or v != word[i - 1])
    assert_kernels_match(gen)


def test_arity_5_bases_match_oracle():
    for degree in range(3):
        words = surjection_complex("ms", 5).basis(degree)
        assert same_stream(words, surjection_basis_oracle(5, degree))


# -- edges --------------------------------------------------------------------------


def test_no_generators_in_negative_degree():
    families = [
        simplex_complex(3),
        product_complex(1, 2),
        sym_eg(3),
        cyc_eg(4),
        maclane_complex(ProductGroup((CyclicGroup(2), CyclicGroup(3)))),
        coinvariant_complex(SymmetricGroup(3)),
        coinvariant_complex(SymmetricGroup(3), True),
        minimal_complex(5),
        TensorComplex((surjection_complex("bf", 2), sym_eg(2))),
    ] + [surjection_complex(flavor, n) for flavor in FLAVORS for n in (1, 3)]
    for cplx in families:
        for k in (-1, -2):
            assert list(cplx.basis(k)) == [], (cplx, k)
            if cplx.group is not None:
                assert list(cplx.gbasis(k)) == [], (cplx, k)
            if hasattr(cplx, "basis_size"):
                size = cplx.basis_size(k)
                assert size == 0 and type(size) is int, (cplx, k)
            if hasattr(cplx, "pattern_reps"):
                assert list(cplx.pattern_reps(k)) == [], (cplx, k)


def test_enumeration_is_lazy():
    # 5 * 4^12 candidate words and 120 * 119^6 tuples: only a lazy
    # enumeration returns the first at once
    for cplx, degree, oracle in (
        (surjection_complex("bf", 5), 8, surjection_basis_oracle(5, 8)),
        (sym_eg(5), 6, maclane_basis_oracle(SymmetricGroup(5), 6)),
    ):
        start = time.perf_counter()
        first = next(iter(cplx.basis(degree)))
        assert time.perf_counter() - start < 0.5
        assert first == next(oracle)


# -- the operad tensor kernels ------------------------------------------------------
#
# The bookkeeping every operad composite and engine does on one tensor, against
# the versions it replaced: row extraction as nested generators over frozenset
# unions, a surjection's decomposition as first occurrences, inverse and the
# action formula's sign, the twisted split through a Koszul-permuted tuple, the
# pairwise caesura-shuffle count and the tensor input as an itertools product.

# The operad benchmark's shapes: (family, arities, max degree).
OPERAD_SHAPES = (
    ("bf", (2, 2, 2), 3),
    ("bf", (2, 1, 3), 2),
    ("bf", (3, 1, 2, 1), 2),
    ("be", (2, 2, 2), 2),
    ("be", (2, 1, 3), 1),
    ("be", (3, 2, 1, 1), 1),
)


def table_rows_oracle(X):
    last = len(X) - 1

    def rec(j, left, dead, prefix):
        row = [v for v in X[j] if v not in dead]
        if j == last:
            if (2 if last else 1) <= left <= len(row):
                yield tuple(prefix + row[:left])
            return
        for a in range(1, min(len(row), left - (last - j)) + 1):
            take = row[:a]
            yield from rec(j + 1, left - a, dead.union(take[:-1]), prefix + take)

    return rec(0, len(X[0]) + last, frozenset(), [])


def first_occurrences_oracle(gen):
    seen = []
    for v in gen:
        if v not in seen:
            seen.append(v)
    return Perm(seen)


def decompose_oracle(cplx, gen):
    """A surjection as g . b through the complex's own action formula."""
    g = first_occurrences_oracle(gen)
    if g.is_identity():
        return g, 1, gen
    ginv = g.inverse()
    b = tuple([ginv[v - 1] for v in gen])
    (sign, _), = cplx.act_terms(g, b)
    return g, sign, b


def tensor_decompose_oracle(dom, gen):
    gs, coeff, bs = [], 1, []
    for f, g in zip(dom.factors, gen):
        gi, ci, bi = decompose_oracle(f, g) if isinstance(f, SurjectionComplex) else f.decompose(g)
        gs.append(gi)
        coeff *= ci
        bs.append(bi)
    return tuple(gs), coeff, tuple(bs)


def left_action_oracle(g, values):
    """Slot g(i) gets values[i - 1]."""
    out = [None] * len(values)
    for i, v in enumerate(values, start=1):
        out[g(i) - 1] = v
    return tuple(out)


def split_oracle(dom, gen, arities):
    ghat, coeff, b = tensor_decompose_oracle(dom, gen)
    g, hs = ghat[0], ghat[1:]
    inner = b[1:]
    if not g.is_identity():
        ginv = g.inverse()
        degrees = [f.degree_of(y) for f, y in zip(dom.factors[1:], inner)]
        coeff *= koszul_sign(ginv, degrees)
        inner = left_action_oracle(ginv, inner)
        arities = (arities[0],) + left_action_oracle(ginv, arities[1:])
    osig = sigma_compose(g, list(hs))
    return (arities, (b[0],) + inner), coeff, None if osig.is_identity() else osig


def division_sign_oracle(dx, x_caesura_pos, tags):
    word = [0 if p in x_caesura_pos else tags[p - 1] for p in caesuras_oracle(dx)]
    count = 0
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            if word[a] > word[b]:
                count += 1
    return -1 if count % 2 else 1


def surj_compose_terms_oracle(gen, arities):
    x, ys = gen[0], list(gen[1:])
    sizes = list(arities[1:])
    g = first_occurrences_oracle(x)
    if not g.is_identity():
        ginv = g.inverse()
        kappa = koszul_sign(ginv, [len(y) - s for y, s in zip(ys, sizes)])
        x, ys = tuple([ginv[v - 1] for v in x]), [ys[v - 1] for v in g]
    counts = [x.count(v) for v in range(1, len(ys) + 1)]
    shifts = [sum(max(y) for y in ys[:i]) for i in range(len(ys))]
    shifted = [tuple(v + s for v in y) for y, s in zip(ys, shifts)]
    out = []
    for combo in product(*(list(k_divisions(y, k)) for y, k in zip(shifted, counts))):
        dx, xpos, tags = division_substitution(x, combo)
        out.append((division_sign_oracle(dx, xpos, tags), dx))
    if g.is_identity():
        return out
    blocks = block_perm(g, sizes)
    return [(kappa * c, tuple([blocks[v - 1] for v in t])) for c, t in out]


def tensor_oracle(xs):
    """(generator, coefficient) pairs of x_1 (x) ... (x) x_k, in order."""
    ring = xs[0].ring
    out = []
    for combo in product(*[[(c, g) for g, c in x.terms.items()] for x in xs]):
        coeff = 1
        for c, _ in combo:
            coeff *= c
        if ring.normalize(coeff):
            out.append((tuple(g for _, g in combo), ring.normalize(coeff)))
    return out


def shape_domain(family, arities):
    return TensorComplex(tuple(sym_eg(n) if family == "be" else surjection_complex(family, n) for n in arities))


def assert_operad_kernels_match(family, arities, gen, engine):
    dom = shape_domain(family, arities)
    assert dom.decompose(gen) == tensor_decompose_oracle(dom, gen)
    assert engine.split(gen, arities) == split_oracle(dom, gen, arities)
    if family == "bf":
        assert surj_compose_terms(gen, arities) == surj_compose_terms_oracle(gen, arities)


def test_table_rows_match_oracle():
    for n, max_degree in ((3, 3), (4, 2)):
        for degree in range(max_degree + 1):
            for X in sym_eg(n).basis(degree):
                assert table_rows(X) == list(table_rows_oracle(X)), X


def test_surjection_decompositions_match_oracle():
    for flavor in FLAVORS:
        for n in range(1, 5):
            S = surjection_complex(flavor, n)
            for degree in range(4):
                for gen in S.basis(degree):
                    got = S.decompose(gen)
                    assert got == decompose_oracle(S, gen), (S, gen)
                    assert type(got[0]) is Perm


def test_operad_tensor_kernels_match_oracles_on_the_workload_shapes():
    engines = {"bf": surj_engine("bf"), "be": be_engine()}
    for family, arities, max_degree in OPERAD_SHAPES:
        dom = shape_domain(family, arities)
        for degree in range(max_degree + 1):
            for gen in dom.basis(degree):
                assert_operad_kernels_match(family, arities, gen, engines[family])


def test_division_signs_match_the_pairwise_count():
    # every division of every surjection tensor of the workload's shapes
    for family, arities, max_degree in OPERAD_SHAPES[:3]:
        dom = shape_domain(family, arities)
        for degree in range(max_degree + 1):
            for x, *ys in dom.basis(degree):
                counts = [x.count(v) for v in range(1, len(ys) + 1)]
                for combo in product(*(list(k_divisions(y, k)) for y, k in zip(ys, counts))):
                    dx, xpos, tags = division_substitution(x, combo)
                    assert division_sign(dx, xpos, tags) == division_sign_oracle(dx, xpos, tags)


def test_tensor_inputs_match_the_product():
    # each factor the sum of its whole basis in one degree, with
    # coefficients 1, 2, 3, ... (over GF(5) the multiples of 5 vanish)
    for ring in (ZZ, GF(5)):
        for family, arities, max_degree in OPERAD_SHAPES:
            dom = shape_domain(family, arities)
            for degrees in product(range(max_degree + 1), repeat=len(arities)):
                if sum(degrees) > max_degree:
                    continue
                xs = [
                    sum((f.el(ring, g, i + 1) for i, g in enumerate(f.basis(k))), f.zero(ring, k))
                    for f, k in zip(dom.factors, degrees)
                ]
                got = tensor_elements(dom, *xs)
                assert list(got.terms.items()) == tensor_oracle(xs), (arities, degrees)
                assert got.degree == sum(degrees)


@lru_cache(maxsize=None)
def listed_basis(cplx, degree):
    return list(cplx.basis(degree))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(OPERAD_SHAPES), st.data())
def test_operad_tensor_kernels_match_oracles_past_the_shapes(shape, data):
    # a basis tensor one degree past the shape's maximum
    family, arities, max_degree = shape
    gen = data.draw(st.sampled_from(listed_basis(shape_domain(family, arities), max_degree + 1)))
    engine = surj_engine("bf") if family == "bf" else be_engine()
    assert_operad_kernels_match(family, arities, gen, engine)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 4), (4, 3)]), st.data())
def test_table_rows_match_oracle_past_the_exhaustive_degrees(case, data):
    n, degree = case
    elements = list(SymmetricGroup(n).elements())
    X = [data.draw(st.sampled_from(elements))]
    for _ in range(degree):
        # any element but the one before it
        step = data.draw(st.integers(1, len(elements) - 1))
        X.append(elements[(elements.index(X[-1]) + step) % len(elements)])
    assert table_rows(tuple(X)) == list(table_rows_oracle(tuple(X)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FLAVORS), st.integers(2, 4), st.data())
def test_surjection_decompositions_match_oracle_in_degree_4(flavor, n, data):
    S = surjection_complex(flavor, n)
    gen = data.draw(st.sampled_from(listed_basis(S, 4)))
    assert S.decompose(gen) == decompose_oracle(S, gen)
