"""The Berger-Fresse action, its composites, mod-p constants, and the
dual cochain operations."""

import random
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.action import (
    BG,
    BFActionStandard,
    Cochain,
    FaceTable,
    Space,
    _generator_plan,
    bf_action,
    bf_action_terms,
    cochain_coboundary,
    cochain_evaluate,
    dual_operation,
    action_for,
    perm_act,
    steenrod_constant,
    sz_square,
)
from chainops.complexes import act, boundary
from chainops.elements import Element
from chainops.errors import GuardExceeded, InvalidInput, set_term_guard, term_guard
from chainops.groups import SymmetricGroup
from chainops.minimal import minimal_complex
from chainops.perms import Perm
from chainops.rings import GF, ZZ
from chainops.simplex import fundamental, multidiagonal, simplex_complex, tensor_power
from chainops.surjections import surjection_complex

S = lambda n: surjection_complex("bf", n)


def test_monomial_action_golden_term():
    terms = bf_action_terms((1, 2, 1, 3, 2, 1, 3), 5)
    target = ((0, 1, 2, 4, 5), (0, 1, 2, 3, 4), (2, 5))
    assert [c for c, g in terms if g == target] == [1]


def test_degree_zero_is_multidiagonal():
    for n in (2, 3):
        for m in (0, 1, 2, 3):
            e = tuple(range(1, n + 1))
            got = bf_action(S(n).el(ZZ, e), m)
            want = multidiagonal(n, simplex_complex(m).el(ZZ, fundamental(m)))
            assert got == want


def test_equivariant_degree_zero():
    g = Perm((3, 1, 2))
    got = bf_action(S(3).el(ZZ, (3, 1, 2)), 2)
    want = perm_act(
        g, multidiagonal(3, simplex_complex(2).el(ZZ, fundamental(2)))
    )
    assert got == want


def test_vanishing_above_dimension_bound():
    assert bf_action(S(2).el(ZZ, (1, 2, 1, 2)), 1).is_zero()
    assert bf_action(S(3).el(ZZ, (1, 2, 3, 1, 2, 3, 1)), 1).is_zero()


def test_closed_equals_recursive():
    for n in (2, 3):
        std = BFActionStandard(n)
        for k in range(0, 3):
            for gen in S(n).basis(k):
                for m in range(0, 4):
                    x = S(n).el(ZZ, gen)
                    assert bf_action(x, m) == std.apply(x, m)


# one step past action_suite's exhaustive bounds (n <= 3, k <= 2, m <= 3):
# (arity, degrees, ambient dimensions)
PAST_THE_SUITE = ((4, (0, 1, 2), (0, 1, 2, 3)), (3, (3,), (0, 1, 2, 3)), (3, (0, 1, 2), (4,)))


@st.composite
def action_cases(draw):
    n, ks, ms = draw(st.sampled_from(PAST_THE_SUITE))
    k = draw(st.sampled_from(ks))
    gens = draw(st.lists(st.sampled_from(list(S(n).basis(k))), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(gens), max_size=len(gens)))
    return Element(S(n), ZZ, k, list(zip(coeffs, gens))), draw(st.sampled_from(ms))


@settings(max_examples=100, deadline=None)
@given(action_cases())
def test_closed_equals_recursive_past_the_suite(case):
    """bf_action against a fresh BFActionStandard at arity 4 (k <= 2,
    m <= 3), at k = 3 and at m = 4 (arity 3)."""
    x, m = case
    assert bf_action(x, m) == BFActionStandard(x.complex.n).apply(x, m)


def test_chain_map_identity():
    from chainops.simplex import face_vmap, push_simplex_element

    for n in (2, 3):
        for k in range(0, 4):
            for gen in S(n).basis(k):
                for m in (1, 2, 3):
                    x = S(n).el(ZZ, gen)
                    target = tensor_power(m, n)
                    total = bf_action(boundary(x), m)
                    inner = bf_action(x, m - 1)
                    for j in range(m + 1):
                        total = total + ((-1) ** (k + j)) * push_simplex_element(
                            inner, face_vmap(m, j), target
                        )
                    assert total == boundary(bf_action(x, m))


def test_equivariance():
    for n in (2, 3):
        for k in range(0, 3):
            for gen in S(n).basis(k):
                x = S(n).el(ZZ, gen)
                for g in SymmetricGroup(n).elements():
                    assert bf_action(act(g, x), 2) == perm_act(
                        g, bf_action(x, 2)
                    )


def test_basis_outputs_in_image_of_contraction():
    from chainops.complexes import contract

    for n in (2, 3):
        for k in range(0, 3):
            for gen in S(n).gbasis(k):
                for m in (1, 2, 3):
                    val = bf_action(S(n).el(ZZ, gen), m)
                    assert contract(val).is_zero()


def test_monomial_recovery_round_trip():
    # each nonzero tensor summand comes from exactly one monomial
    for n in (2, 3):
        for k in range(0, 3):
            for gen in S(n).basis(k):
                for m in (1, 2, 3):
                    seen = {}
                    for c, t in bf_action_terms(gen, m):
                        assert t not in seen, (gen, m, t)
                        seen[t] = c


def test_action_for_minimal_degree8_mod5():
    F5 = GF(5)
    val = action_for(minimal_complex(5).el(F5, (0, 8)), 2)
    T = tensor_power(2, 5)
    assert val == T.el(F5, (fundamental(2),) * 5, 4)


def test_action_for_minimal_c13():
    F3 = GF(3)
    val = action_for(minimal_complex(3).el(F3, (0, 2)), 1)
    T = tensor_power(1, 3)
    assert val == T.el(F3, (fundamental(1),) * 3, steenrod_constant(1, 3))


def test_action_for_eg_degree_zero():
    E = __import__("chainops.maclane", fromlist=["sym_eg"]).sym_eg(3)
    g = Perm((2, 3, 1))
    val = action_for(E.el(ZZ, (g,)), 2)
    want = perm_act(
        g, multidiagonal(3, simplex_complex(2).el(ZZ, fundamental(2)))
    )
    assert val == want


def test_action_suite_reports_first_counterexample(monkeypatch):
    import chainops.action
    from chainops.suites import action_suite

    calls = []

    class WrongEngine:
        def apply(self, x, m):
            calls.append((x, m))
            return None

    monkeypatch.setattr(chainops.action, "BFActionStandard", lambda n: WrongEngine())
    [check] = [c for c in action_suite().checks if c.name.startswith("closed = recursive")]
    assert not check.ok
    assert check.counterexample == (2, next(iter(S(2).basis(0))), 0)
    assert len(calls) == 1


def test_action_suite_reports_first_vanishing_counterexample(monkeypatch):
    import chainops.action
    from chainops.suites import action_suite

    calls = []

    class NonZero:
        def is_zero(self):
            return False

    def wrong_action(x, m):
        calls.append((x.complex.n, next(iter(x.terms)), m))
        return NonZero()

    monkeypatch.setattr(chainops.action, "bf_action", wrong_action)
    [check] = [c for c in action_suite().checks if c.name == "Phi = 0 when k > m(n-1)"]
    assert not check.ok
    assert check.counterexample == (2, next(iter(S(2).basis(1))), 0)
    assert calls[-1] == check.counterexample


def test_bf_action_standard_values_carry_the_engine_ring():
    F3 = GF(3)
    std = BFActionStandard(2, F3)
    value = std.on_gen((1, 2), 1)
    assert value.ring == F3
    closed = bf_action(S(2).el(F3, (1, 2)), 1)
    assert value == closed
    assert value + closed == 2 * closed


def test_steenrod_constants():
    assert steenrod_constant(2, 5) == 4
    assert steenrod_constant(1, 3) == 1
    assert steenrod_constant(0, 7) == 1
    for p in (2, 9, 1, 0, -3):
        with pytest.raises(InvalidInput, match="odd prime"):
            steenrod_constant(1, p)
    # c_{m,p} is defined for m >= 0 only; a negative m used to give a float
    for m in (-1, -2):
        with pytest.raises(InvalidInput, match="m >= 0"):
            steenrod_constant(m, 3)


# -- cochain evaluation ------------------------------------------------------------

TRIANGLE = {
    "dim": 2,
    "simplices": [
        {"id": "v0", "dim": 0},
        {"id": "v1", "dim": 0},
        {"id": "v2", "dim": 0},
        {"id": "e01", "dim": 1, "faces": ["v1", "v0"]},
        {"id": "e02", "dim": 1, "faces": ["v2", "v0"]},
        {"id": "e12", "dim": 1, "faces": ["v2", "v1"]},
        {"id": "t", "dim": 2, "faces": ["e12", "e02", "e01"]},
    ],
}


def table():
    return FaceTable(TRIANGLE)


def test_cup_product_via_aw():
    tab = table()
    x = S(2).el(ZZ, (1, 2))
    alpha = Cochain(1, {"e01": 1})
    beta = Cochain(1, {"e12": 1})
    # Dold-signed cup product: (-1)^{pq} alpha(front) beta(back)
    assert cochain_evaluate(x, [alpha, beta], tab, "t") == -1
    a0 = Cochain(0, {"v0": 2, "v1": 3, "v2": 5})
    b0 = Cochain(0, {"v0": 7, "v1": 11, "v2": 13})
    for v in ("v0", "v1", "v2"):
        assert cochain_evaluate(x, [a0, b0], tab, v) == a0(v) * b0(v)
    # mixed degrees: alpha deg 0, beta deg 1 on an edge
    assert cochain_evaluate(x, [a0, beta], tab, "e12") == a0("v1") * beta("e12")


def test_unit_cochains_evaluate_to_one():
    tab = table()
    ones = Cochain(0, {"v0": 1, "v1": 1, "v2": 1})
    for n in (2, 3):
        x = S(n).el(ZZ, tuple(range(1, n + 1)))
        for v in ("v0", "v1", "v2"):
            assert cochain_evaluate(x, [ones] * n, tab, v) == 1


def test_cup_one_coboundary_identity():
    """d(Phi-adjoint) = Phi-adjoint(d .): the chain-map identity of Phi
    transported through the duality pairing, on the triangle table."""
    tab = table()
    x = S(2).el(ZZ, (1, 2, 1))
    cochain_choices = {
        0: [Cochain(0, {"v0": 1, "v1": 2, "v2": -1}), Cochain(0, {"v1": 3})],
        1: [Cochain(1, {"e01": 1, "e12": -2}), Cochain(1, {"e02": 5})],
        2: [Cochain(2, {"t": 1})],
    }

    def op(xs, alphas):
        return dual_operation(xs, alphas, tab)

    def cochains_equal(u, v):
        return u.degree == v.degree and u.values == v.values

    for p in (0, 1, 2):
        for q in (0, 1, 2):
            for alpha in cochain_choices[p]:
                for beta in cochain_choices[q]:
                    # right side: delta(Phi(x (x) a (x) b))
                    rhs = cochain_coboundary(op(x, [alpha, beta]), tab)
                    # left side: Phi(d(x (x) a (x) b))
                    out_deg = p + q - x.degree + 1
                    acc = {}

                    def add(cochain, scale):
                        for sid, vv in cochain.values.items():
                            acc[sid] = acc.get(sid, 0) + scale * vv

                    add(op(boundary(x), [alpha, beta]), 1)
                    da = cochain_coboundary(alpha, tab)
                    db = cochain_coboundary(beta, tab)
                    # (-1)^{|x|} x (x) d(alpha (x) beta), |alpha| = -p
                    add(op(x, [da, beta]), (-1) ** x.degree)
                    add(op(x, [alpha, db]), (-1) ** (x.degree + p))
                    lhs = {sid: v for sid, v in acc.items() if v}
                    assert lhs == rhs.values, (p, q, alpha.values, beta.values)


def simplex_with_null(m):
    """The m-simplex on vertices 0..m, plus a triangle c = (0, 1, 1) whose
    0-th face is the degenerate edge (1, 1)."""
    return {
        "dim": m,
        "simplices": [
            {
                "id": "".join(map(str, s)),
                "dim": len(s) - 1,
                "faces": ["".join(map(str, s[:j] + s[j + 1 :])) for j in range(len(s))]
                if len(s) > 1
                else [],
            }
            for k in range(1, m + 2)
            for s in combinations(range(m + 1), k)
        ]
        + [{"id": "c", "dim": 2, "faces": [None, "01", "01"]}],
    }


SIMPLEX3 = simplex_with_null(3)


def dual_operation_oracle(x, cochains, tab, ring):
    """dual_operation recomputed from one bf_action(x, d) and the public
    FaceTable.subface on each simplex, independently of the evaluation plan."""
    out_dim = sum(a.degree for a in cochains) - x.degree
    terms = []
    for gen, coeff in bf_action(x, out_dim).terms.items():
        dims = [len(f) - 1 for f in gen]
        if dims != [a.degree for a in cochains]:
            continue
        odd = sum(t % 2 for t in dims)
        terms.append((coeff * (-1) ** (odd * (odd - 1) // 2), gen))
    values = {}
    for sid in sorted(tab.dims, key=str):
        if tab.dims[sid] != out_dim:
            continue
        total = 0
        for prod, gen in terms:
            for f, a in zip(gen, cochains):
                face = tab.subface(sid, f)
                prod *= 0 if face is None else a(face)
            total += prod
        v = ring.normalize((-1) ** (x.degree * (1 + out_dim)) * total)
        if v:
            values[sid] = v
    return values


def test_dual_operation_against_per_simplex_oracle():
    """Over ZZ, GF(3) and GF(2) (on bitmasks), with integer values that are
    negative, even and odd, through SIMPLEX3's null face, and over GF(2)
    through the null-face B(Z/2)'s inner null faces, in table order."""
    rng = random.Random(5)
    for data, rings in ((SIMPLEX3, (ZZ, GF(3), GF(2))), (b_z2_null(3), (GF(2),))):
        tab = FaceTable(data)
        assert any(None in f for f in tab.faces.values())
        by_dim = {d: [sid for sid in tab.dims if tab.dims[sid] == d] for d in range(4)}
        for ring in rings:
            for n in (2, 3):
                for k in (0, 1, 2):
                    x = Element(
                        S(n), ring, k, [(rng.randint(1, 4), g) for g in S(n).basis(k)]
                    )
                    for degrees in product(range(4), repeat=n):
                        if not 0 <= sum(degrees) - k <= 3:
                            continue
                        cochains = [
                            Cochain(d, {sid: rng.randint(-3, 3) for sid in by_dim[d]})
                            for d in degrees
                        ]
                        want = dual_operation_oracle(x, cochains, tab, ring)
                        got = dual_operation(x, cochains, tab, ring)
                        assert got.degree == sum(degrees) - k
                        assert list(got.values.items()) == list(want.items())
                        # one position at a time, on every simplex: 0 off the
                        # output degree
                        for sid, dim in tab.dims.items():
                            value = cochain_evaluate(x, cochains, tab, sid, ring)
                            assert value == (want.get(sid, 0) if dim == got.degree else 0)


def sparse_cochain(rng, tab, d):
    """1-3 nonzero values on simplices of dimension d, and explicit 0s."""
    sids = list(tab.simplices(d))
    chosen = rng.sample(sids, min(len(sids), rng.randint(2, 5)))
    nonzero = rng.randint(1, min(3, len(chosen)))
    values = {sid: 0 for sid in chosen[nonzero:]}
    values.update((sid, rng.choice((-3, -2, -1, 1, 2, 3))) for sid in chosen[:nonzero])
    return Cochain(d, dict(rng.sample(sorted(values.items()), len(values))))


def test_dual_operation_on_sparse_supports_against_oracle():
    """Sparse operands give the oracle's values in table order, also through
    a null face (SIMPLEX3's c): over ZZ and GF(3) by the column sum over
    every d-simplex, which builds no mask index, over GF(2) on the
    bitmasks."""
    rng = random.Random(13)
    for tab in (FaceTable(SIMPLEX3), FaceTable(simplex_with_null(5))):
        for ring in (ZZ, GF(3), GF(2)):
            for n in (2, 3):
                for k in (0, 1, 2):
                    x = Element(
                        S(n), ring, k, [(rng.randint(1, 4), g) for g in S(n).basis(k)]
                    )
                    for degrees in product(range(4), repeat=n):
                        if not 0 <= sum(degrees) - k <= 3:
                            continue
                        cochains = [sparse_cochain(rng, tab, d) for d in degrees]
                        want = dual_operation_oracle(x, cochains, tab, ring)
                        got = dual_operation(x, cochains, tab, ring)
                        assert got.degree == sum(degrees) - k
                        assert list(got.values.items()) == list(want.items())
            # the rings run in the order ZZ, GF(3), GF(2)
            assert bool(tab._masks) == (ring == GF(2))


def test_dense_operand_scans_and_builds_no_index():
    """Dense operands (as the benchmark's xy op is, 315 of 405 edges
    nonzero), mixed with a sparse one, give the oracle's values over ZZ by
    the column sum over every edge, which builds no mask index."""
    tab = FaceTable(simplex_with_null(5))
    x = S(2).el(ZZ, (1, 2, 1))
    edges = list(tab.simplices(1))
    dense = Cochain(1, {sid: i + 1 for i, sid in enumerate(edges)})
    # 11 of 15 edges nonzero, the other 4 explicit zeros
    mostly = Cochain(1, {sid: int(i % 4 != 0) for i, sid in enumerate(edges)})
    sparse = Cochain(1, {edges[0]: 1, edges[1]: 0})
    for cochains in ([dense, dense], [dense, mostly], [mostly, mostly], [dense, sparse]):
        got = dual_operation(x, cochains, tab)
        assert got.values
        assert list(got.values.items()) == list(
            dual_operation_oracle(x, cochains, tab, ZZ).items()
        )
    assert tab._masks == {}


def b_z2(m, inner=lambda k, j: {"of": f"s{k - 2}", "s": [j - 1]}):
    """B(Z/2) as a one-vertex face table up to dimension m: one simplex sN
    per dimension N, whose faces d_0 and d_N are s(N-1) and whose inner face
    d_j is s_(j-1) s(N-2), as a degeneracy record (the bar formula merges
    the 1s at j into the identity)."""
    return {
        "dim": m,
        "simplices": [
            {
                "id": f"s{k}",
                "dim": k,
                "faces": [f"s{k - 1}" if j in (0, k) else inner(k, j) for j in range(k + 1)]
                if k
                else [],
            }
            for k in range(m + 1)
        ],
    }


def b_z2_null(m):
    """b_z2 with null inner faces.  It is a null-face fragment, not B(Z/2):
    a walk stops at an inner null face where a face of that degenerate face
    is s(k), so cochain operations that need such a face come out 0 on it."""
    return b_z2(m, lambda k, j: None)


def coboundary_oracle(alpha, tab, ring):
    """cochain_coboundary recomputed simplex by simplex from the face lists
    themselves, independently of walks, walk maps and mask indexes: a null
    face and a degeneracy record are degenerate, so they give 0."""
    d = alpha.degree + 1
    values = {}
    for sid in sorted(tab.dims, key=str):
        if d <= 0 or tab.dims[sid] != d:
            continue
        faces = enumerate(tab.faces[sid])
        total = sum((-1) ** j * alpha(f) for j, f in faces if f is not None and type(f) is not dict)
        v = ring.normalize((-1) ** d * total)
        if v:
            values[sid] = v
    return values


def test_cochain_coboundary_against_per_simplex_oracle():
    """The coboundary's one-step walks give the oracle's values in table
    order, through null faces (SIMPLEX3's c, the null-face B(Z/2)'s inner
    faces) and degeneracy records (B(Z/2)'s inner faces), for dense and
    sparse cochains of every degree; over GF(2) they take the mask indexes
    of the one-step walks, over ZZ and GF(3) none."""
    rng = random.Random(41)
    for data in (SIMPLEX3, simplex_with_null(5), b_z2_null(5), b_z2(5)):
        tab = FaceTable(data)
        nonzero = 0
        for ring in (ZZ, GF(3), GF(2)):
            assert cochain_coboundary(Cochain(-1, {}), tab, ring).values == {}
            for k in range(data["dim"] + 1):
                dense = Cochain(k, {sid: rng.choice((-2, -1, 1, 2)) for sid in tab.simplices(k)})
                for alpha in (dense, sparse_cochain(rng, tab, k)):
                    want = coboundary_oracle(alpha, tab, ring)
                    got = cochain_coboundary(alpha, tab, ring)
                    assert got.degree == k + 1
                    assert list(got.values.items()) == list(want.items())
                    nonzero += bool(want)
        assert nonzero >= data["dim"]
    # a sparse edge cochain on the 5-simplex: the three one-step walks are
    # mask-indexed over GF(2) only
    for ring in (ZZ, GF(3), GF(2)):
        tab = FaceTable(simplex_with_null(5))
        edges = list(tab.simplices(1))
        alpha = Cochain(1, {edges[0]: 1, edges[4]: 0, edges[7]: -2})
        got = cochain_coboundary(alpha, tab, ring)
        assert list(got.values.items()) == list(coboundary_oracle(alpha, tab, ring).items())
        assert set(tab._masks) == ({(2, (j,)) for j in range(3)} if ring == GF(2) else set())


def bar_table(orders, top):
    """BG(orders, top) as a face table with degeneracy records, its faces
    written out by the bar formula."""
    simplices = []
    for bar, d in BG(orders, top).dims.items():
        faces = []
        for i in range(1, d):
            g = tuple((a + b) % n for a, b, n in zip(bar[i - 1], bar[i], orders))
            rest = bar[: i - 1] + bar[i + 1 :]
            faces.append({"of": rest, "s": [i - 1]} if not any(g) else rest[: i - 1] + (g,) + rest[i - 1 :])
        faces = [bar[1:], *faces, bar[:-1]] if d else []
        simplices.append({"id": bar, "dim": d, "faces": faces})
    return {"dim": top, "simplices": simplices}


def test_walk_map_agrees_with_subface():
    """The walk map and the oracle's subface reach the same face from every
    d-simplex, on every walk a plan uses and on every other vertex subset,
    also through null faces and degeneracy records.  On the null-face
    fragment b_z2_null both stop at an inner null face; on b_z2, S^4 and
    the bar-formula tables of B(Z/3) and B(Z/2 x Z/2) both go on through
    the records, by the epi walk and by the simplicial identities, and on
    the bar-formula tables subface reaches what vertex selection does."""
    fixtures = (SIMPLEX3, simplex_with_null(5), b_z2_null(5), b_z2(7), sphere(4), SQUASHED)
    tables = [(data, None) for data in fixtures]
    tables += [(bar_table(orders, top), BG(orders, 0)) for orders, top in (((3,), 5), ((2, 2), 4))]
    for data, bg in tables:
        tab = FaceTable(data)
        for d in range(data["dim"] + 1):
            walks = {
                tuple(v for v in range(d, -1, -1) if v not in kept)
                for k in range(1, d + 2)
                for kept in combinations(range(d + 1), k)
            }
            # every walk of a plan for this dimension is among them
            for n, k in ((2, 0), (2, 1), (2, 2), (3, 1)):
                for gen in S(n).basis(k):
                    for group in _generator_plan(gen, d)[1].values():
                        for *_, deletions in group:
                            assert set(deletions) <= walks
            for walk in walks:
                kept = [v for v in range(d + 1) if v not in walk]
                faces = tab.walk_map(d, walk)
                assert len(faces) == len(tab.simplices(d))
                for sid, face in zip(tab.simplices(d), faces):
                    assert face == tab.subface(sid, kept)
                if bg is not None:
                    assert faces == [vertex_selection(bg, bar, walk) for bar in tab.simplices(d)]


class OrderedComplex(Space):
    """An ordered simplicial complex from its top simplices: every vertex
    subset of one is a simplex, whose id is its vertex tuple, and face j
    deletes entry j, so no face is degenerate."""

    def __init__(self, tops):
        subsets = (s for top in tops for k in range(1, len(top) + 1) for s in combinations(top, k))
        super().__init__({s: len(s) - 1 for s in subsets})

    def face(self, sid, j):
        return sid[:j] + sid[j + 1 :], None


def test_a_space_is_dims_and_walk():
    """dual_operation and cochain_coboundary on a Space that gives only dims
    and face (Delta^3 and the boundary of Delta^4 as ordered complexes), over
    ZZ, GF(3) and GF(2), equal the oracles run on the face tables of the same
    complexes with each vertex tuple relabelled as its string of digits, in
    table order."""
    rng = random.Random(17)
    name = lambda s: "".join(map(str, s))
    nonzero = 0
    for tops in ([tuple(range(4))], list(combinations(range(5), 4))):
        space = OrderedComplex(tops)
        assert set(vars(space)) == {"dims", "_by_dim", "_walks", "_masks"}
        assert {a for a in dir(space) if a[0] != "_"} == {
            "dims", "simplices", "face", "walk", "walk_map", "masks"
        }
        records = []
        for s, d in space.dims.items():
            faces = [name(s[:j] + s[j + 1 :]) for j in range(d + 1)] if d else []
            records.append({"id": name(s), "dim": d, "faces": faces})
        tab = FaceTable({"dim": 3, "simplices": records})
        relabel = lambda c: [(name(s), v) for s, v in c.values.items()]
        for ring in (ZZ, GF(3), GF(2)):
            lifts = {}
            for d in range(4):
                values = {s: rng.randint(-3, 3) for s in space.simplices(d)}
                lifts[d] = (Cochain(d, values), Cochain(d, {name(s): v for s, v in values.items()}))
                got = cochain_coboundary(lifts[d][0], space, ring)
                assert relabel(got) == list(coboundary_oracle(lifts[d][1], tab, ring).items())
            for n, k in ((2, 0), (2, 1), (2, 2), (3, 1)):
                x = Element(S(n), ring, k, [(rng.randint(1, 4), g) for g in S(n).basis(k)])
                for degrees in product(range(4), repeat=n):
                    if 0 <= sum(degrees) - k <= 3:
                        got = dual_operation(x, [lifts[e][0] for e in degrees], space, ring)
                        want = dual_operation_oracle(x, [lifts[e][1] for e in degrees], tab, ring)
                        assert relabel(got) == list(want.items())
                        nonzero += bool(want)
    assert nonzero >= 100


def cup_on_bars(alpha, beta, space, ring):
    """The Dold-signed cup product on a nerve, read off the bars themselves:
    (-1)^(pq) alpha(g_1..g_p) beta(g_(p+1)..g_(p+q)), in table order, with
    no walk."""
    p, q = alpha.degree, beta.degree
    values = {}
    for bar in space.simplices(p + q):
        v = ring.normalize((-1) ** (p * q) * alpha(bar[:p]) * beta(bar[p:]))
        if v:
            values[bar] = v
    return values


def squares_wrong(space):
    """The (n, k), 1 <= n <= 6 and 0 <= k <= n, where Sq^k(x^n) is not
    C(n, k) x^(n+k) on a model of B(Z/2) with one simplex per dimension.
    Mod 2 every cochain there is a cocycle and only 0 a coboundary, so x^n
    is the indicator of the n-simplex, and Sq^k(u) = u cup_(n-k) u through
    the bf word 1212... of length n - k + 2."""
    wrong = []
    for n in range(1, 7):
        xn = Cochain(n, {space.simplices(n)[0]: 1})
        for k in range(n + 1):
            word = tuple(1 + j % 2 for j in range(n - k + 2))
            got = dual_operation(S(2).el(GF(2), word), [xn, xn], space, GF(2))
            want = {space.simplices(n + k)[0]: 1} if comb(n, k) % 2 else {}
            if got.values != want:
                wrong.append((n, k))
    return wrong


def test_steenrod_squares_on_bz2_against_known_answers():
    """All 27 cases Sq^k(x^n) = C(n, k) x^(n+k), n <= 6, hold on BG((2,))
    and on the one-vertex face table with degeneracy records.  On the
    null-face fragment b_z2_null the cup squares Sq^n(x^n) for n = 2, 3 and
    4 come out 0."""
    assert squares_wrong(BG((2,), 12)) == [] == squares_wrong(FaceTable(b_z2(12)))
    assert {(2, 2), (3, 3), (4, 4)} <= set(squares_wrong(FaceTable(b_z2_null(12))))


def test_cup_products_on_classifying_spaces():
    """On B(Z/2), B(Z/3) and B(Z/2 x Z/2), over ZZ, GF(3) and GF(2), the cup
    product of random cochains is the bar formula and associative, and on
    the one-vertex B(Z/2) face table with degeneracy records associative.
    On the null-face fragment b_z2_null, (x cup x) cup x = 0 while
    x cup (x cup x) = x^3."""
    rng = random.Random(7)
    nonzero = 0
    for space in (BG((2,), 5), BG((3,), 4), BG((2, 2), 4), FaceTable(b_z2(5))):
        for ring in (ZZ, GF(3), GF(2)):
            cup = S(2).el(ring, (1, 2))
            for degrees in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)):
                a, b, c = (
                    Cochain(d, {bar: rng.randint(-3, 3) for bar in space.simplices(d)})
                    for d in degrees
                )
                ab = dual_operation(cup, [a, b], space, ring)
                if isinstance(space, BG):
                    assert list(ab.values.items()) == list(cup_on_bars(a, b, space, ring).items())
                left = dual_operation(cup, [ab, c], space, ring)
                right = dual_operation(cup, [a, dual_operation(cup, [b, c], space, ring)], space, ring)
                assert left.values == right.values
                nonzero += bool(left.values)
    # not vacuous: most of the 48 cases have a nonzero triple product
    assert nonzero >= 24
    cup = S(2).el(GF(2), (1, 2))
    for space, want, associative in (
        (BG((2,), 3), {((1,),) * 3: 1}, True),
        (FaceTable(b_z2(3)), {"s3": 1}, True),
        (FaceTable(b_z2_null(3)), {"s3": 1}, False),
    ):
        x = Cochain(1, {space.simplices(1)[0]: 1})
        xx = dual_operation(cup, [x, x], space, GF(2))
        right = dual_operation(cup, [x, xx], space, GF(2)).values
        left = dual_operation(cup, [xx, x], space, GF(2)).values
        assert right == want
        assert (left == right) == associative


def test_bockstein_and_cup_square_on_bz3():
    """On B(Z/3), with u(g) = g and v(g, h) = [g + h >= 3]: the coboundary
    of u is 3v, so 0 mod 3, v is a cocycle, and v cup v is nonzero exactly
    on the 9 of 16 four-simplices whose halves both carry."""
    space = BG((3,), 4)
    carries = lambda g, h: int(g[0] + h[0] >= 3)
    u = Cochain(1, {bar: bar[0][0] for bar in space.simplices(1)})
    v = Cochain(2, {bar: carries(*bar) for bar in space.simplices(2)})
    assert cochain_coboundary(u, space).values == {bar: 3 for bar, c in v.values.items() if c}
    assert cochain_coboundary(u, space, GF(3)).values == {}
    for ring in (ZZ, GF(3)):
        assert cochain_coboundary(v, space, ring).values == {}
        square = dual_operation(S(2).el(ring, (1, 2)), [v, v], space, ring)
        want = [bar for bar in space.simplices(4) if carries(*bar[:2]) and carries(*bar[2:])]
        assert square.values == dict.fromkeys(want, 1)
        assert len(want) == 9 and len(space.simplices(4)) == 16


def test_bg_builds_no_face_lists_and_validates():
    """BG(orders, top) is a Space and not a FaceTable: it has (|G| - 1)^d
    simplices in dimension d, builds no face lists and has no subface, and
    rejects orders and dimensions that are not positive and non-negative
    integers."""
    space = BG((2, 2), 8)
    assert isinstance(space, Space) and not isinstance(space, FaceTable)
    assert [len(space.simplices(d)) for d in range(10)] == [3**d for d in range(9)] + [0]
    assert not hasattr(space, "faces") and not hasattr(space, "subface")
    assert space._walks == {}
    assert [BG((), 3).simplices(d) for d in range(4)] == [((),), (), (), ()]
    for orders, top in (((0,), 2), ((2.0,), 2), ((2, -1), 2), ((2,), -1), ((2,), "3"), ((True,), 1)):
        with pytest.raises(InvalidInput):
            BG(orders, top)


def vertex_selection(space, sid, walk):
    """The face a deletion walk reaches from a bar of BG, by vertex
    selection: the face keeps the other vertices, its bar is their
    successive differences, and it is degenerate (None) where two
    consecutive kept vertices coincide."""
    orders = space.orders
    vertex = (0,) * len(orders)
    vertices = [vertex]
    for g in sid:
        vertex = tuple((a + b) % n for a, b, n in zip(vertex, g, orders))
        vertices.append(vertex)
    kept = [p for v, p in enumerate(vertices) if v not in walk]
    steps = list(zip(kept, kept[1:]))
    if any(p == q for p, q in steps):
        return None
    return tuple(tuple((b - a) % n for a, b, n in zip(p, q, orders)) for p, q in steps)


def test_bg_walk_against_vertex_selection():
    """The walk over BG's bar-formula faces reaches the face vertex
    selection reaches, on every walk map of B(Z/2) to d = 8, B(Z/3) to d = 6
    and B(Z/2 x Z/2) to d = 6: 1,507 maps, among them walks through
    degenerate faces."""
    maps = degenerate = 0
    for orders, top in (((2,), 8), ((3,), 6), ((2, 2), 6)):
        space = BG(orders, top)
        for d in range(top + 1):
            for k in range(1, d + 2):
                for kept in combinations(range(d + 1), k):
                    walk = tuple(v for v in range(d, -1, -1) if v not in kept)
                    want = [vertex_selection(space, bar, walk) for bar in space.simplices(d)]
                    assert space.walk_map(d, walk) == want, (orders, d, walk)
                    maps += 1
                    degenerate += None in want
    assert maps == 1507 and degenerate > 900


def sphere(n):
    """S^n as one vertex v and one n-simplex t, n >= 2, each of whose faces
    is the degenerate (n-1)-simplex s_(n-2)...s_0 v."""
    record = {"of": "v", "s": list(range(n - 2, -1, -1))}
    return {"dim": n, "simplices": [{"id": "v", "dim": 0}, {"id": "t", "dim": n, "faces": [record] * (n + 1)}]}


# Delta^3 with its face 012 squashed onto the edge e = 02 by s_0 (vertices
# 0, 1 -> a, 2 -> b, 3 -> c): the pushout along sigma_0: Delta^2 -> Delta^1.
# Its degenerate faces sit below the vertices a walk deletes first.
SQUASHED = {
    "dim": 3,
    "simplices": [
        {"id": "a", "dim": 0},
        {"id": "b", "dim": 0},
        {"id": "c", "dim": 0},
        {"id": "e", "dim": 1, "faces": ["b", "a"]},
        {"id": "03", "dim": 1, "faces": ["c", "a"]},
        {"id": "13", "dim": 1, "faces": ["c", "a"]},
        {"id": "23", "dim": 1, "faces": ["c", "b"]},
        {"id": "013", "dim": 2, "faces": ["13", "03", {"of": "a", "s": [0]}]},
        {"id": "023", "dim": 2, "faces": ["23", "03", "e"]},
        {"id": "123", "dim": 2, "faces": ["23", "13", "e"]},
        {"id": "0123", "dim": 3, "faces": ["123", "023", "013", {"of": "e", "s": [0]}]},
    ],
}


def test_record_tables_against_oracles():
    """On the one-vertex B(Z/2) with degeneracy records, on S^4 (records of
    three degeneracies) and on the squashed Delta^3, dual_operation and
    cochain_coboundary over ZZ, GF(3) and GF(2) give the oracles' values,
    which walk through the records by subface; the null-face B(Z/2) gives
    other values on some of the same operands."""
    rng = random.Random(23)
    nonzero = differ = 0
    for data in (b_z2(6), sphere(4), SQUASHED):
        tab = FaceTable(data)
        null = FaceTable(b_z2_null(6)) if data["dim"] == 6 else None
        for ring in (ZZ, GF(3), GF(2)):
            lifts = {
                d: Cochain(d, {sid: rng.choice((-3, -1, 1, 2)) for sid in tab.simplices(d)})
                for d in range(7)
            }
            for d in range(6):
                want = coboundary_oracle(lifts[d], tab, ring)
                assert cochain_coboundary(lifts[d], tab, ring).values == want
            for n, k in ((2, 0), (2, 1), (2, 2), (3, 1)):
                x = Element(S(n), ring, k, [(rng.randint(1, 4), g) for g in S(n).basis(k)])
                for degrees in product(range(1, 5), repeat=n):
                    if 0 <= sum(degrees) - k <= data["dim"]:
                        cochains = [lifts[e] for e in degrees]
                        want = dual_operation_oracle(x, cochains, tab, ring)
                        got = dual_operation(x, cochains, tab, ring)
                        assert list(got.values.items()) == list(want.items())
                        nonzero += bool(want)
                        if null is not None:
                            differ += dual_operation(x, cochains, null, ring).values != want
    assert nonzero >= 50 and differ >= 10


def test_mask_index_partitions_the_landing_simplices():
    """Per (dimension, walk) the masks are disjoint, and together they are
    the positions whose walk does not end at a null face, each under the
    face its walk reaches.  A GF(2) operation builds masks; a ZZ or GF(3)
    operation builds none."""
    for data in (SIMPLEX3, simplex_with_null(5), b_z2_null(5), b_z2(5)):
        tab = FaceTable(data)
        for d in range(data["dim"] + 1):
            for k in range(1, d + 2):
                for kept in combinations(range(d + 1), k):
                    walk = tuple(v for v in range(d, -1, -1) if v not in kept)
                    faces = tab.walk_map(d, walk)
                    masks = tab.masks(d, walk)
                    union = 0
                    for face, mask in masks.items():
                        assert mask and not union & mask
                        union |= mask
                        bits = range(mask.bit_length())
                        assert all(faces[pos] == face for pos in bits if mask >> pos & 1)
                    landed = [pos for pos, face in enumerate(faces) if face is not None]
                    assert union == sum(1 << pos for pos in landed)
    x = S(2).el(ZZ, (1, 2, 1))
    for ring in (ZZ, GF(3), GF(2)):
        tab = FaceTable(simplex_with_null(5))
        edges = list(tab.simplices(1))
        dense = Cochain(1, {sid: i + 1 for i, sid in enumerate(edges)})
        sparse = Cochain(1, {edges[0]: 1, edges[1]: 3})
        for cochains in ([dense, sparse], [sparse, sparse]):
            dual_operation(x, cochains, tab, ring)
            cochain_coboundary(sparse, tab, ring)
        assert bool(tab._masks) == (ring == GF(2))


def test_repeated_and_equal_operands():
    """One Cochain object passed twice (as the benchmark's Sq^1(xy) and
    Sq^2(xy) pass xy), and two distinct cochains with equal values, give the
    oracle's values in value order, dense and sparse, on GF(2) too."""
    rng = random.Random(31)
    tab = FaceTable(simplex_with_null(5))
    for ring in (ZZ, GF(3), GF(2)):
        for gen, d in (((1, 2), 1), ((1, 2, 1), 2), ((1, 2), 2), ((1, 2, 1), 1)):
            x = S(2).el(ring, gen, rng.randint(1, 4))
            dense = {sid: rng.choice((-2, -1, 1, 2)) for sid in tab.simplices(d)}
            for values in (dense, sparse_cochain(rng, tab, d).values):
                alpha = Cochain(d, values)
                for cochains in ([alpha, alpha], [alpha, Cochain(d, dict(values))]):
                    want = dual_operation_oracle(x, cochains, tab, ring)
                    got = dual_operation(x, cochains, tab, ring)
                    assert list(got.values.items()) == list(want.items())
        # 5 is 2 in GF(3) and 1 in GF(2)
        x = S(3).el(ring, (1, 2, 1, 3), 5)
        alpha = Cochain(1, {sid: rng.randint(-3, 3) for sid in tab.simplices(1)})
        beta = Cochain(1, dict(alpha.values))
        for cochains in ([alpha, alpha, alpha], [alpha, beta, alpha]):
            want = dual_operation_oracle(x, cochains, tab, ring)
            assert want
            assert list(dual_operation(x, cochains, tab, ring).values.items()) == list(want.items())
    # on B(Z/2), with records and with null faces: an odd lift of the
    # generator x in degree 1, and its cup square passed twice to the cup-0,
    # cup-1 and cup-2 words
    for b in (FaceTable(b_z2(5)), FaceTable(b_z2_null(5))):
        x1 = Cochain(1, {"s1": -3})
        square = dual_operation(S(2).el(GF(2), (1, 2)), [x1, x1], b, GF(2))
        assert square.values == {"s2": 1}
        lifted = Cochain(2, {"s2": 5})
        for gen in ((1, 2), (1, 2, 1), (1, 2, 1, 2)):
            x = S(2).el(GF(2), gen)
            for cochains in ([square, square], [lifted, lifted], [square, lifted]):
                want = dual_operation_oracle(x, cochains, b, GF(2))
                got = dual_operation(x, cochains, b, GF(2))
                assert list(got.values.items()) == list(want.items())


def test_null_key_in_a_cochain_names_no_simplex():
    """A walk map marks a walk that a null face ends with None, so a cochain
    value keyed by None must not be read there: no simplex has a null id."""
    tab = FaceTable(SIMPLEX3)
    x = S(2).el(ZZ, (1, 2))
    alpha = Cochain(1, {sid: 1 for sid in tab.simplices(1)})
    haunted = Cochain(1, {**alpha.values, None: 5})
    for cochains in ([haunted, haunted], [alpha, haunted]):
        want = dual_operation_oracle(x, cochains, tab, ZZ)
        assert list(dual_operation(x, cochains, tab).values.items()) == list(want.items())
        assert cochain_evaluate(x, cochains, tab, "c") == want.get("c", 0)


def guard_peak(x, d):
    """The largest integer sum bf_action(x, d) meets: the sizes of the sums
    of x's scaled generator images after each generator, their maximum."""
    peak, acc = 0, {}
    for gen, coeff in x.terms.items():
        for g, c in bf_action(S(x.complex.n).el(ZZ, gen, coeff), d).terms.items():
            if v := acc.get(g, 0) + c:
                acc[g] = v
            else:
                del acc[g]
        peak = max(peak, len(acc))
    return peak


def test_term_guard_trips_where_bf_action_does(monkeypatch):
    """dual_operation and cochain_evaluate check the term guard on the
    counts bf_action(x, d) checks: one below its peak they raise its
    message, at the peak and at the plans' counts added up they pass, with
    the plan memo cold or warm, on both paths of the pairing plan, for one
    generator and for several: where the plans' counts add up to at most
    the guard and only the paired groups are summed, and where they pass it
    and the whole plans are summed for the guard.  The cases include plans
    that share terms, so that the counts add up to more than the peak, and
    two generators whose shared term cancels, so that the sum shrinks."""
    import chainops.action

    checked = []
    check_plan_sums = chainops.action._check_plan_sums

    def counted(x, d):
        checked.append(True)
        check_plan_sums(x, d)

    monkeypatch.setattr(chainops.action, "_check_plan_sums", counted)
    rng = random.Random(31)
    tab = FaceTable(simplex_with_null(5))
    cases = (
        (S(2).el(ZZ, (1, 2, 1)), (2, 2)),
        (boundary(S(3).el(ZZ, (1, 2, 1, 3), 2)), (1, 1, 2)),
        # (1, 2, 3) and (1, 3, 2) share one of their 6 terms at d = 2
        (Element(S(3), ZZ, 0, [(1, (1, 2, 3)), (1, (1, 3, 2))]), (1, 1, 0)),
        (Element(S(3), ZZ, 0, [(1, (1, 2, 3)), (-1, (1, 3, 2))]), (0, 1, 1)),
        # the one term of each, shared with opposite signs
        (Element(S(2), ZZ, 1, [(1, (1, 2, 1)), (1, (2, 1, 2))]), (1, 1)),
    )
    old = term_guard()
    paths = set()
    try:
        for x, degrees in cases:
            d = sum(degrees) - x.degree
            cochains = [
                Cochain(k, {sid: rng.randint(-3, 3) for sid in tab.simplices(k)})
                for k in degrees
            ]
            sid = tab.simplices(d)[0]
            set_term_guard(old)
            peak = guard_peak(x, d)
            counts = sum(_generator_plan(gen, d)[0] for gen in x.terms)
            values = dual_operation_oracle(x, cochains, tab, ZZ)
            assert counts >= peak >= len(bf_action(x, d).terms)
            for guard in sorted({peak - 1, peak, counts} - {0}):
                set_term_guard(guard)
                if guard < peak:
                    with pytest.raises(GuardExceeded) as want:
                        bf_action(x, d)
                else:
                    bf_action(x, d)
                for call, value in (
                    (lambda: dual_operation(x, cochains, tab).values, values),
                    (lambda: cochain_evaluate(x, cochains, tab, sid), values.get(sid, 0)),
                ):
                    # the cold pass leaves x's plans in the memo
                    for warm in (False, True):
                        if not warm:
                            _generator_plan.cache_clear()
                        checked.clear()
                        if guard < peak:
                            with pytest.raises(GuardExceeded) as got:
                                call()
                            assert str(got.value) == str(want.value)
                        else:
                            assert call() == value
                        assert checked == [True] * (counts > guard)
                        paths.add((len(x.terms) > 1, counts > guard))
    finally:
        set_term_guard(old)
    assert paths == set(product((False, True), repeat=2))


def test_term_guard_trips_before_later_plans_are_built():
    """When the plan of x's first generator alone passes the guard, the
    guard trips on it, as in bf_action, and the plans of x's other
    generators are never built."""
    tab = FaceTable(simplex_with_null(5))
    x = Element(S(3), ZZ, 0, [(1, (1, 2, 3)), (1, (1, 3, 2)), (1, (2, 1, 3))])
    degrees = (1, 1, 0)
    d = sum(degrees) - x.degree
    cochains = [Cochain(k, {sid: 1 for sid in tab.simplices(k)}) for k in degrees]
    sid = tab.simplices(d)[0]
    count = _generator_plan((1, 2, 3), d)[0]
    assert next(iter(x.terms)) == (1, 2, 3) and count > 1
    old = term_guard()
    try:
        set_term_guard(count - 1)
        with pytest.raises(GuardExceeded) as want:
            bf_action(x, d)
        for call in (
            lambda: dual_operation(x, cochains, tab),
            lambda: cochain_evaluate(x, cochains, tab, sid),
        ):
            _generator_plan.cache_clear()
            with pytest.raises(GuardExceeded) as got:
                call()
            assert str(got.value) == str(want.value)
            assert _generator_plan.cache_info().misses == 1
    finally:
        set_term_guard(old)


PLAN_TABLE = FaceTable(simplex_with_null(4))


@st.composite
def plan_cases(draw):
    """An S^bf element of 1-3 generators of arity 2 or 3 and degree <= 2,
    with coefficients that may vanish mod 2 or mod 3, and operand degrees
    of output dimension <= 4, also where no term of the plans has them as
    factor dimensions."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, 2))
    gens = draw(st.lists(st.sampled_from(list(S(n).basis(k))), min_size=1, max_size=3, unique=True))
    coeff = st.sampled_from((1, -1, 2, 3, -2, -3, 4, 6, -6))
    coeffs = draw(st.lists(coeff, min_size=len(gens), max_size=len(gens)))
    degree = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    degrees = draw(degree.filter(lambda ds: 0 <= sum(ds) - k <= 4))
    return k, list(zip(coeffs, gens)), tuple(degrees), draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(plan_cases())
def test_pairing_plan_paths_against_oracle(case):
    """dual_operation gives the oracle's values over ZZ, GF(2) and GF(3),
    under the default term guard and under a guard at bf_action's peak,
    where the counts of several generators' plans that share terms add up
    to more than the guard."""
    k, pairs, degrees, rng = case
    tab = PLAN_TABLE
    cochains = [Cochain(e, {sid: rng.randint(-3, 3) for sid in tab.simplices(e)}) for e in degrees]
    d = sum(degrees) - k
    old = term_guard()
    try:
        for ring in (ZZ, GF(2), GF(3)):
            set_term_guard(old)
            x = Element(S(len(degrees)), ring, k, pairs)
            want = list(dual_operation_oracle(x, cochains, tab, ring).items())
            for guard in {old, guard_peak(x, d) or old}:
                set_term_guard(guard)
                assert list(dual_operation(x, cochains, tab, ring).values.items()) == want
    finally:
        set_term_guard(old)


def test_plan_memo_serves_every_ring():
    """Plans memoized over GF(2), where they give the oracle's values, give
    the oracle's values over ZZ and GF(3), in value order, without a miss,
    and the values a cold memo gives; the same generators meet several
    output dimensions.  An integer element evaluated over GF(2) keeps only
    its terms of odd coefficient.  The memo is bounded."""
    assert _generator_plan.cache_info().maxsize is not None
    rng = random.Random(29)
    tab = FaceTable(simplex_with_null(5))
    cases = []
    for n, k, dims in ((2, 0, (1, 2, 3)), (2, 1, (1, 2, 3)), (2, 2, (1, 2, 3)), (3, 1, (2, 3))):
        gens = list(S(n).basis(k))
        coeffs = [rng.randint(1, 4) for _ in gens]
        for d in dims:
            degrees = rng.choice(
                [ds for ds in product(range(4), repeat=n) if sum(ds) - k == d]
            )
            cochains = [
                Cochain(e, {sid: rng.randint(-3, 3) for sid in tab.simplices(e)})
                for e in degrees
            ]
            cases.append((n, k, list(zip(coeffs, gens)), cochains))
    results = {}
    for ring in (ZZ, GF(3)):
        for i, (n, k, pairs, cochains) in enumerate(cases):
            _generator_plan.cache_clear()
            x = Element(S(n), ring, k, pairs)
            results[ring, i] = list(dual_operation(x, cochains, tab, ring).values.items())
    _generator_plan.cache_clear()
    for n, k, pairs, cochains in cases:
        x = Element(S(n), GF(2), k, [(1, g) for _, g in pairs])
        got = dual_operation(x, cochains, tab, GF(2))
        want = dual_operation_oracle(x, cochains, tab, GF(2))
        assert list(got.values.items()) == list(want.items())
    misses = _generator_plan.cache_info().misses
    for ring in (ZZ, GF(3)):
        for i, (n, k, pairs, cochains) in enumerate(cases):
            x = Element(S(n), ring, k, pairs)
            want = dual_operation_oracle(x, cochains, tab, ring)
            got = dual_operation(x, cochains, tab, ring)
            assert list(got.values.items()) == list(want.items()) == results[ring, i]
            for sid in tab.simplices(got.degree):
                assert cochain_evaluate(x, cochains, tab, sid, ring) == want.get(sid, 0)
    # integer coefficients 1-4, read mod 2: the terms of even coefficient drop
    for n, k, pairs, cochains in cases:
        x = Element(S(n), ZZ, k, pairs)
        want = dual_operation_oracle(x, cochains, tab, GF(2))
        assert list(dual_operation(x, cochains, tab, GF(2)).values.items()) == list(want.items())
    assert _generator_plan.cache_info().misses == misses
    even = S(2).el(ZZ, (1, 2), 2)
    ones = Cochain(1, {sid: 1 for sid in tab.simplices(1)})
    assert dual_operation_oracle(even, [ones, ones], tab, ZZ)
    assert dual_operation(even, [ones, ones], tab, GF(2)).values == {}


def test_cochain_operands_are_validated():
    tab = table()
    alpha = Cochain(1, {"e01": 1})
    x = S(2).el(ZZ, (1, 2, 1))
    with pytest.raises(InvalidInput):
        cochain_evaluate(x, [alpha, alpha], tab, "nowhere")
    for bad_x, cochains in (
        (S(3).el(ZZ, (1, 2, 3)), [alpha, alpha]),
        (surjection_complex("ms", 2).el(ZZ, (1, 2, 1)), [alpha, alpha]),
        (x, [alpha]),
    ):
        # the output degree 1 + 1 - |x| is negative for some of these
        with pytest.raises(InvalidInput):
            dual_operation(bad_x, cochains, tab)
        with pytest.raises(InvalidInput):
            cochain_evaluate(bad_x, cochains, tab, "t")
    # an operand that is not a Cochain, or a space that is not a Space, is
    # invalid input, not an AttributeError
    space = BG((2,), 3)
    for call in (
        lambda: dual_operation(x, [{"a": 1}, {"b": 1}], space),
        lambda: dual_operation(x, [alpha, alpha], {"dim": 1}),
        lambda: cochain_evaluate(x, [alpha, alpha], {"dim": 1}, "t"),
        lambda: cochain_coboundary({"a": 1}, space),
        lambda: cochain_coboundary(alpha, {"dim": 1}),
    ):
        with pytest.raises(InvalidInput):
            call()


def test_cochains_hold_integers():
    for degree, values in (
        (1, {"e01": 1.5}),
        (1.0, {"e01": 1}),
        ("1", {}),
        (True, {"e01": 1}),
        (1, {"e01": True}),
    ):
        with pytest.raises(InvalidInput):
            Cochain(degree, values)
    assert Cochain(1, [("e01", 2)]).values == {"e01": 2}


def test_face_table_validation():
    with pytest.raises(Exception):
        FaceTable(
            {
                "dim": 1,
                "simplices": [{"id": "e", "dim": 1, "faces": ["a"]}],
            }
        )
    # every face must name a simplex one dimension lower, or be null
    for faces in (["a", "z"], ["a", "e"]):
        with pytest.raises(InvalidInput):
            FaceTable(
                {
                    "dim": 1,
                    "simplices": [
                        {"id": "a", "dim": 0},
                        {"id": "e", "dim": 1, "faces": faces},
                    ],
                }
            )
    FaceTable(
        {
            "dim": 1,
            "simplices": [
                {"id": "e", "dim": 1, "faces": [None, "a"]},
                {"id": "a", "dim": 0},
            ],
        }
    )
    # a missing key or a malformed record is invalid input, not a KeyError
    for data in (
        {"simplices": []},
        {"dim": 0},
        {"dim": 0, "simplices": [{"dim": 0}]},
        {"dim": 0, "simplices": [{"id": "v"}]},
        {"dim": 0, "simplices": ["v"]},
        [],
        # dims are non-negative ints, faces a list, ids and faces hashable
        {"dim": 0, "simplices": [{"id": "v", "dim": "0"}]},
        {"dim": 0, "simplices": [{"id": "v", "dim": -1}]},
        {"dim": 0, "simplices": [{"id": "v", "dim": 0.0}]},
        {"dim": 0, "simplices": [{"id": "v", "dim": False}]},
        {"dim": 0, "simplices": [{"id": "v", "dim": 0, "faces": 5}]},
        {"dim": 0, "simplices": [{"id": ["v"], "dim": 0}]},
        {"dim": 0, "simplices": [{"id": {}, "dim": 0}]},
        {"dim": 1, "simplices": [{"id": "e", "dim": 1, "faces": [["a"], None]}]},
        # null marks a degenerate face, so no simplex may be called null
        {"dim": 0, "simplices": [{"id": None, "dim": 0}]},
        {"dim": 1, "simplices": [{"id": None, "dim": 0}, {"id": "e", "dim": 1, "faces": [None, None]}]},
        # the table's dim is a non-negative int, and no simplex lies above it
        {"dim": "five", "simplices": []},
        {"dim": -3, "simplices": []},
        {"dim": 0, "simplices": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1, "faces": ["a", "a"]}]},
        # two records with one id: the later one used to replace the earlier
        {"dim": 1, "simplices": [{"id": "a", "dim": 0}, {"id": "a", "dim": 1, "faces": [None, None]}]},
        {"dim": 0, "simplices": [{"id": "a", "dim": 0}, {"id": "a", "dim": 0}]},
    ):
        with pytest.raises(InvalidInput):
            FaceTable(data)
    # a degeneracy record names a simplex of dimension dim - 1 - len(s) under
    # 's', a list of ints k_1 > ... > k_m in 0..dim - 2
    for record in MALFORMED_RECORDS:
        with pytest.raises(InvalidInput, match="record|face"):
            FaceTable(record_table(record))
    # well-formed records in simplicial sets: the one degeneracy of v as all
    # four faces of a 3-simplex, and s_0 and s_1 of the loop s1 of B(Z/2)
    FaceTable(record_table({"of": "v", "s": [1, 0]}))
    FaceTable(b_z2(3))
    # one degeneracy of the loop e as all four faces is no simplicial set:
    # d_0 d_3 t and d_2 d_0 t are e and s_0 v, in some order
    for record in ({"of": "e", "s": [1]}, {"of": "e", "s": [0]}):
        with pytest.raises(InvalidInput, match="simplicial identity"):
            FaceTable(record_table(record))
    # a simplex id asked for is hashable: a list is invalid input, not a TypeError
    x = S(2).el(ZZ, (1, 2))
    alpha = Cochain(1, {"e01": 1})
    for sid in (["t"], {}):
        with pytest.raises(InvalidInput, match="no simplex"):
            cochain_evaluate(x, [alpha, alpha], table(), sid)


def record_table(record):
    """A vertex v, a loop e and a 3-simplex t whose faces are the record."""
    return {
        "dim": 3,
        "simplices": [
            {"id": "v", "dim": 0},
            {"id": "e", "dim": 1, "faces": ["v", "v"]},
            {"id": "t", "dim": 3, "faces": [record] * 4},
        ],
    }


# 'of' missing, null, unhashable, no simplex or of the wrong dimension; 's'
# missing, not a list of ints, empty, not strictly decreasing or out of range
MALFORMED_RECORDS = (
    {"s": [1, 0]},
    {"of": None, "s": [1, 0]},
    {"of": ["v"], "s": [1, 0]},
    {"of": "w", "s": [1, 0]},
    {"of": "e", "s": [1, 0]},
    {"of": "v", "s": [1]},
    {"of": "v"},
    {"of": "v", "s": 1},
    {"of": "v", "s": ["1", "0"]},
    {"of": "v", "s": [True, False]},
    {"of": "v", "s": [1.0, 0]},
    {"of": "v", "s": []},
    {"of": "v", "s": [0, 1]},
    {"of": "v", "s": [1, 1]},
    {"of": "v", "s": [2, 0]},
    {"of": "v", "s": [1, -1]},
)


def test_simplices_order_by_str_id():
    tab = FaceTable(
        {
            "dim": 1,
            "simplices": [
                {"id": 10, "dim": 0},
                {"id": "b", "dim": 1, "faces": [10, 9]},
                {"id": 9, "dim": 0},
                {"id": "a", "dim": 1, "faces": [9, 10]},
            ],
        }
    )
    assert tab.simplices(0) == (10, 9)
    assert tab.simplices(1) == ("a", "b")
    assert tab.simplices(2) == ()


def test_sz_square_cases():
    x = S(2).el(ZZ, (1, 2, 1))
    cases = [
        ([S(1).el(ZZ, (1,)), S(2).el(ZZ, (1, 2))], 1),
        ([S(2).el(ZZ, (1, 2, 1)), S(1).el(ZZ, (1,))], 2),
        ([S(2).el(ZZ, (2, 1)), S(2).el(ZZ, (1, 2, 1))], 2),
    ]
    for ys, m in cases:
        left, right = sz_square(x, ys, m)
        assert left == right


def test_action_for_eg_positive_degree_is_composite():
    from chainops.maclane import sym_eg
    from chainops.morphisms import table_reduction

    E = sym_eg(2)
    e, s = Perm.identity(2), Perm((2, 1))
    x = E.el(ZZ, (e, s))
    assert action_for(x, 2) == bf_action(table_reduction("bf", x), 2)
