"""The per-generator structure kernels of the surjection complexes and the
basis enumerators against the straightforward versions they replaced: the
caesura scan, the sign tables and the contraction rebuilt from scratch for
every q, the recursive enumerators, and the F[G]-bases filtered out of the
whole basis.  The oracles are kept here, apart
from the library, and must agree term by term and in order.  Also: no
family has generators (or relabelling classes) in negative degree, and
enumeration is lazy."""

import time
from itertools import zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.complexes import TensorComplex
from chainops.groups import CyclicGroup, ProductGroup, SymmetricGroup
from chainops.maclane import coinvariant_complex, cyc_eg, maclane_complex, sym_eg
from chainops.minimal import minimal_complex
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
