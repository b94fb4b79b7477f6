"""Table reduction, prism maps, roundtrips, and the coalgebra checks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.complexes import TensorComplex, act, boundary, contract
from chainops.elements import Element
from chainops.maclane import sym_eg
from chainops.morphisms import (
    base_simplex,
    fundamental_simplex,
    prism_map,
    prism_terms,
    table_reduction,
    table_reduction_standard,
)
from chainops.perms import Perm, all_perms
from chainops.procedure import StandardMap
from chainops.rings import ZZ
from chainops.simplex import multidiagonal
from chainops.suites import roundtrip_check
from chainops.surjections import is_basis_gen, iso, sign_c, surjection_complex

GOLDEN12 = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)


def test_tr_degree_zero_and_one():
    E2 = sym_eg(2)
    e, s = Perm.identity(2), Perm((2, 1))
    assert table_reduction("bf", E2.el(ZZ, (s,))) == surjection_complex(
        "bf", 2
    ).el(ZZ, (2, 1))
    # aj: tr(g) = tau(g) g in degree 0
    assert table_reduction("aj", E2.el(ZZ, (s,))) == surjection_complex(
        "aj", 2
    ).el(ZZ, (2, 1), -1)
    assert table_reduction("bf", E2.el(ZZ, (e, s))) == surjection_complex(
        "bf", 2
    ).el(ZZ, (1, 2, 1))


def test_tr_closed_equals_recursive():
    for flavor in ("bf", "ms", "aj"):
        for n in (2, 3):
            E = sym_eg(n)
            std = table_reduction_standard(flavor, n)
            for k in range(0, 4):
                for gen in E.basis(k):
                    x = E.el(ZZ, gen)
                    assert table_reduction(flavor, x) == std(x), (flavor, n, gen)


@st.composite
def words(draw, letters, length):
    """A word of `length` letters with no two equal neighbours: each entry
    is its left neighbour moved on by 1 .. len(letters) - 1 places."""
    word = [draw(st.integers(0, len(letters) - 1))]
    for _ in range(length - 1):
        word.append((word[-1] + draw(st.integers(1, len(letters) - 1))) % len(letters))
    return tuple(letters[i] for i in word)


@st.composite
def surjections(draw, n, k):
    """A nondegenerate surjection of arity n >= 3 and degree k: a
    permutation of 1..n with k more entries put in, each unequal to its
    neighbours (every such surjection arises, its extra entries put in
    from left to right)."""
    word = list(draw(st.permutations(range(1, n + 1))))
    for _ in range(k):
        i = draw(st.integers(0, len(word)))
        near = word[max(i - 1, 0) : i + 1]
        word.insert(i, draw(st.sampled_from([v for v in range(1, n + 1) if v not in near])))
    return tuple(word)


@st.composite
def combinations(draw, cplx, gens):
    """One to three distinct generators drawn from `gens`, each with a
    nonzero coefficient in -3..3, as an Element of cplx."""
    terms = draw(st.lists(gens, min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(terms), max_size=len(terms)))
    return Element(cplx, ZZ, cplx.degree_of(terms[0]), list(zip(coeffs, terms)))


FLAVORS = ("bf", "ms", "aj")


@st.composite
def tr_cases(draw):
    E = sym_eg(4)
    k = draw(st.integers(0, 3))
    return draw(st.sampled_from(FLAVORS)), draw(combinations(E, words(tuple(all_perms(4)), k + 1)))


@settings(max_examples=100, deadline=None)
@given(tr_cases())
def test_tr_closed_equals_recursive_past_the_suite(case):
    """TR against a fresh recursive TR on N(ESigma_4) to degree 3, one
    arity past trpr_suite's n <= 3."""
    flavor, x = case
    assert table_reduction(flavor, x) == table_reduction_standard(flavor, 4)(x)


# one arity or degree past trpr_suite's round trips (n <= 4, k <= 3):
# (arity, degrees)
ROUNDTRIP_PAST_THE_SUITE = ((5, (0, 1, 2, 3)), (3, (4,)), (4, (4,)))


@st.composite
def roundtrip_cases(draw):
    n, ks = draw(st.sampled_from(ROUNDTRIP_PAST_THE_SUITE))
    flavor, k = draw(st.sampled_from(FLAVORS)), draw(st.sampled_from(ks))
    return flavor, draw(combinations(surjection_complex(flavor, n), surjections(n, k)))


@settings(max_examples=100, deadline=None)
@given(roundtrip_cases())
def test_roundtrip_past_the_suite(case):
    """TR.PR = Id on S^flavor(5) to degree 3 and on S^flavor(3) and
    S^flavor(4) at degree 4."""
    flavor, x = case
    assert table_reduction(flavor, prism_map(flavor, x)) == x


def test_tr_chain_map_equivariant_h_commuting():
    for flavor in ("bf", "ms", "aj"):
        E = sym_eg(3)
        for k in range(0, 3):
            for gen in E.basis(k):
                x = E.el(ZZ, gen)
                assert table_reduction(flavor, boundary(x)) == boundary(
                    table_reduction(flavor, x)
                )
                assert table_reduction(flavor, contract(x)) == contract(
                    table_reduction(flavor, x)
                )
                for g in all_perms(3):
                    assert table_reduction(flavor, act(g, x)) == act(
                        g, table_reduction(flavor, x)
                    )


def test_fundamental_simplex_small_goldens():
    # degree 0: the 0-simplex (x)
    assert fundamental_simplex((2, 1, 3)) == (Perm((2, 1, 3)),)
    # x = (1,2,3,1,2): path order (1,2)
    fs = fundamental_simplex((1, 2, 3, 1, 2))
    assert fs == ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def test_fundamental_simplex_golden_7_simplex():
    fs = fundamental_simplex(GOLDEN12)
    expect = [
        (2, 1, 3, 4, 5),
        (1, 2, 3, 4, 5),
        (2, 3, 4, 1, 5),
        (3, 4, 2, 1, 5),
        (4, 2, 3, 1, 5),
        (2, 3, 1, 5, 4),
        (3, 1, 5, 4, 2),
        (3, 5, 4, 1, 2),
    ]
    assert list(fs) == expect
    assert sign_c(GOLDEN12) == 1
    # base simplex maps to a degenerate tuple (two adjacent vertices agree)
    bs = base_simplex(GOLDEN12)
    assert any(a == b for a, b in zip(bs, bs[1:]))
    assert sym_eg(5).canonical(bs) is None


def test_pr_degree_zero():
    S = surjection_complex("bf", 3)
    g = (2, 1, 3)
    val = prism_map("bf", S.el(ZZ, g))
    assert dict(val.terms) == {(Perm(g),): 1}
    Saj = surjection_complex("aj", 3)
    val = prism_map("aj", Saj.el(ZZ, g))
    assert dict(val.terms) == {(Perm(g),): -1}


def test_pr_chain_map_and_image_in_h():
    for flavor in ("bf", "ms", "aj"):
        S = surjection_complex(flavor, 3)
        for k in range(0, 4):
            for gen in S.basis(k):
                x = S.el(ZZ, gen)
                assert prism_map(flavor, boundary(x)) == boundary(
                    prism_map(flavor, x)
                )
        for k in range(0, 4):
            for gen in S.gbasis(k):
                val = prism_map(flavor, S.el(ZZ, gen))
                assert all(t[0].is_identity() for t in val.terms)


def test_pr_equivariant():
    for flavor in ("bf", "ms", "aj"):
        S = surjection_complex(flavor, 3)
        for k in range(0, 3):
            for gen in S.basis(k):
                x = S.el(ZZ, gen)
                for g in all_perms(3):
                    assert prism_map(flavor, act(g, x)) == act(
                        g, prism_map(flavor, x)
                    )


def test_pr_iso_compatible():
    # PR_ms . iso(bf->ms) = PR_bf
    for n in (2, 3):
        S = surjection_complex("bf", n)
        for k in range(0, 4):
            for gen in S.basis(k):
                x = S.el(ZZ, gen)
                assert prism_map("ms", iso("bf", "ms", x)) == prism_map("bf", x)


def test_roundtrip_and_dichotomy():
    for flavor in ("bf", "ms", "aj"):
        assert roundtrip_check(flavor, 3, 3).ok


def test_pr_is_coalgebra_map():
    # (PR x PR) . delta_S = delta_E . PR on ms, n <= 3, k <= 2
    for n in (2, 3):
        S = surjection_complex("ms", n)
        E = sym_eg(n)
        TS = TensorComplex((S, S))
        TE = TensorComplex((E, E))
        delta_S = StandardMap(S, TS, group_hom=lambda a: (a, a))
        for k in range(0, 3):
            for gen in S.basis(k):
                x = S.el(ZZ, gen)
                lhs = multidiagonal(2, prism_map("ms", x))
                rhs = delta_S(x).map_terms(
                    lambda g: [
                        (ca * cb, (ga, gb))
                        for ga, ca in prism_map("ms", S.el(ZZ, g[0])).terms.items()
                        for gb, cb in prism_map("ms", S.el(ZZ, g[1])).terms.items()
                    ],
                    codomain=TE,
                )
                assert lhs == rhs, (n, gen)


def test_table_reduction_not_a_coalgebra_map():
    E3 = sym_eg(3)
    Z = (Perm((1, 2, 3)), Perm((1, 3, 2)), Perm((3, 1, 2)))
    # Z is a maximal simplex of Prism((1,2,3,1,2)) other than the fundamental one
    simplices = [t for _, t in prism_terms((1, 2, 3, 1, 2))]
    assert Z in simplices and Z != fundamental_simplex((1, 2, 3, 1, 2))
    trZ = table_reduction("ms", E3.el(ZZ, Z))
    assert trZ.is_zero()
    S3 = surjection_complex("ms", 3)
    TT = TensorComplex((S3, S3))
    dZ = multidiagonal(2, E3.el(ZZ, Z))
    trtr = dZ.map_terms(
        lambda gen: [
            (ca * cb, (ga, gb))
            for ga, ca in table_reduction("ms", E3.el(ZZ, gen[0])).terms.items()
            for gb, cb in table_reduction("ms", E3.el(ZZ, gen[1])).terms.items()
        ],
        codomain=TT,
    )
    assert not trtr.is_zero()
    assert ((1, 2, 3, 2), (1, 3, 1, 2)) in trtr.terms


def test_trpr_suite_reports_first_counterexample(monkeypatch):
    import chainops.morphisms
    import chainops.suites

    calls = []

    def wrong_engine(flavor, n):
        def std(x):
            calls.append((flavor, n, x))
            return None

        return std

    monkeypatch.setattr(chainops.morphisms, "table_reduction_standard", wrong_engine)
    [check] = [
        c
        for c in chainops.suites.trpr_suite(max_n=2, max_k=0).checks
        if c.name.startswith("TR closed = recursive")
    ]
    assert not check.ok
    assert check.counterexample == ("bf", 2, next(iter(sym_eg(2).basis(0))))
    assert len(calls) == 1
