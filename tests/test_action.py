"""The Berger-Fresse action, its composites, mod-p constants, and the
dual cochain operations."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from chainops.action import (
    BFActionStandard,
    Cochain,
    FaceTable,
    bf_action,
    bf_action_standard,
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
from chainops.errors import InvalidInput
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
        std = bf_action_standard(n)
        for k in range(0, 3):
            for gen in S(n).basis(k):
                for m in range(0, 4):
                    x = S(n).el(ZZ, gen)
                    assert bf_action(x, m) == std.apply(x, m)


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

    monkeypatch.setattr(chainops.action, "bf_action_standard", lambda n: WrongEngine())
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
    with pytest.raises(Exception):
        steenrod_constant(1, 2)


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


# the 3-simplex on vertices 0..3, plus a triangle c = (0, 1, 1) whose
# 0-th face is the degenerate edge (1, 1)
SIMPLEX3 = {
    "dim": 3,
    "simplices": [
        {
            "id": "".join(map(str, s)),
            "dim": len(s) - 1,
            "faces": ["".join(map(str, s[:j] + s[j + 1 :])) for j in range(len(s))]
            if len(s) > 1
            else [],
        }
        for k in range(1, 5)
        for s in combinations(range(4), k)
    ]
    + [{"id": "c", "dim": 2, "faces": [None, "01", "01"]}],
}


def dual_operation_oracle(x, cochains, tab, ring):
    """dual_operation recomputed from bf_action(x, d) for each simplex and
    the public FaceTable.subface, independently of the evaluation plan."""
    out_dim = sum(a.degree for a in cochains) - x.degree
    values = {}
    for sid in sorted(tab.dims, key=str):
        if tab.dims[sid] != out_dim:
            continue
        total = 0
        for gen, coeff in bf_action(x, out_dim).terms.items():
            dims = [len(f) - 1 for f in gen]
            if dims != [a.degree for a in cochains]:
                continue
            odd = sum(t % 2 for t in dims)
            prod = coeff * (-1) ** (odd * (odd - 1) // 2)
            for f, a in zip(gen, cochains):
                face = tab.subface(sid, f)
                prod *= 0 if face is None else a(face)
            total += prod
        v = ring.normalize((-1) ** (x.degree * (1 + out_dim)) * total)
        if v:
            values[sid] = v
    return values


def test_dual_operation_against_per_simplex_oracle():
    rng = random.Random(5)
    tab = FaceTable(SIMPLEX3)
    assert any(None in f for f in tab.faces.values())
    by_dim = {d: [sid for sid in tab.dims if tab.dims[sid] == d] for d in range(4)}
    for ring in (ZZ, GF(3)):
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
                    for sid in by_dim[got.degree]:
                        value = cochain_evaluate(x, cochains, tab, sid, ring)
                        assert value == want.get(sid, 0)


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


def test_cochains_hold_integers():
    for degree, values in ((1, {"e01": 1.5}), (1.0, {"e01": 1}), ("1", {})):
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
    ):
        with pytest.raises(InvalidInput):
            FaceTable(data)


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
    assert list(tab.simplices()) == [10, 9, "a", "b"]
    assert list(tab.simplices(0)) == [10, 9]
    assert list(tab.simplices(1)) == ["a", "b"]
    assert list(tab.simplices(2)) == []


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
