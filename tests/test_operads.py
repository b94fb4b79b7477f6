"""Operad structure maps: symmetric-group operad, Barratt-Eccles,
surjection operad, partial compositions, axioms, and morphism squares."""

import gc
import weakref
from itertools import product as _product

import pytest

from chainops.complexes import TensorComplex, boundary, tensor_elements
from chainops.errors import InvalidInput
from chainops.maclane import sym_eg
from chainops.morphisms import fundamental_simplex, table_reduction
from chainops.operads import (
    be_compose,
    be_engine,
    engine_compose,
    k_divisions,
    oplus,
    partial_compose,
    sigma_compose,
    SurjectionComponents,
    TwistedOperadMap,
    surj_compose,
    surj_engine,
)
from chainops.perms import Perm, all_perms, block_perm, koszul_sign
from chainops.rings import GF, ZZ
from chainops.suites import family_associativity, sigma_suite
from chainops.surjections import is_clean_gen, surjection_complex

S = lambda n: surjection_complex("bf", n)
E = lambda n: sym_eg(n)


def test_sigma_compose_block_golden():
    u = Perm((2, 3, 1))
    vs = [Perm((2, 1)), Perm((3, 1, 2, 4)), Perm((3, 2, 1))]
    assert sigma_compose(u, vs).images == (5, 3, 4, 6, 9, 8, 7, 2, 1)


def test_sigma_compose_identities():
    u = Perm.identity(3)
    vs = [Perm.identity(2), Perm.identity(4), Perm.identity(3)]
    assert sigma_compose(u, vs) == Perm.identity(9)


def test_sigma_compose_factorizations():
    u = Perm((2, 3, 1))
    vs = [Perm((2, 1)), Perm((3, 1, 2, 4)), Perm((3, 2, 1))]
    sizes = [2, 4, 3]
    lhs = sigma_compose(u, vs)
    assert lhs == oplus(vs) * block_perm(u, sizes)
    vg = [vs[u(i) - 1] for i in range(1, 4)]
    assert lhs == block_perm(u, sizes) * oplus(vg)


def test_sigma_associativity_small_exhaustive():
    # r <= 2, r_i <= 2, s_ij <= 2
    for r in (1, 2):
        for r_list in _product((1, 2), repeat=r):
            for s_rows in _product(
                *[list(_product((1, 2), repeat=ri)) for ri in r_list]
            ):
                for u in all_perms(r):
                    for vs in _product(*[list(all_perms(ri)) for ri in r_list]):
                        flat_sizes = [s for row in s_rows for s in row]
                        for ws_flat in _product(
                            *[list(all_perms(s)) for s in flat_sizes]
                        ):
                            ws = []
                            idx = 0
                            for row in s_rows:
                                ws.append(list(ws_flat[idx : idx + len(row)]))
                                idx += len(row)
                            inner = [
                                sigma_compose(vs[i], ws[i]) for i in range(r)
                            ]
                            top = sigma_compose(u, inner)
                            bottom = sigma_compose(
                                sigma_compose(u, list(vs)), list(ws_flat)
                            )
                            assert top == bottom


def test_k_divisions_count_and_golden():
    y = (1, 2, 3, 2, 4)
    divs = list(k_divisions(tuple(v + 2 for v in y), 3))
    assert ((3, 4), (4, 5, 4, 6), (6,)) in divs
    # single-entry tuple has exactly one k-division
    assert list(k_divisions((7,), 3)) == [((7,), (7,), (7,))]


def test_surj_compose_full_golden():
    x = S(3).el(ZZ, (1, 2, 1, 3, 2))
    y1 = S(3).el(ZZ, (1, 2, 3, 1))
    y2 = S(4).el(ZZ, (1, 2, 1, 4, 3))
    y3 = S(2).el(ZZ, (1, 2, 1))
    full = surj_compose("bf", x, [y1, y2, y3])
    assert full.coeff((1, 2, 4, 5, 4, 7, 2, 3, 1, 8, 9, 8, 7, 6)) == -1


def test_partial_compose_three_term_golden():
    x = S(3).el(ZZ, (1, 2, 1, 3, 2))
    y = S(2).el(ZZ, (1, 2, 1))
    val = partial_compose("bf", 2, x, y)
    assert dict(val.terms) == {
        (1, 2, 1, 4, 2, 3, 2): 1,
        (1, 2, 3, 1, 4, 3, 2): -1,
        (1, 2, 3, 2, 1, 4, 2): -1,
    }


def test_partial_compose_unit_and_range():
    x = S(3).el(ZZ, (1, 2, 1, 3, 2))
    unit = S(1).el(ZZ, (1,))
    assert partial_compose("bf", 1, x, unit) == x
    with pytest.raises(InvalidInput):
        partial_compose("bf", 4, x, unit)


def test_compositions_are_over_the_inputs_ring():
    F3 = GF(3)
    u = sym_eg(2).basepoint(ZZ)
    one = sym_eg(1).basepoint(ZZ)
    with pytest.raises(InvalidInput):
        be_compose(u, [one, one], F3)
    x = S(3).el(ZZ, (1, 2, 1, 3, 2))
    with pytest.raises(InvalidInput):
        surj_compose("bf", x, [S(1).basepoint(ZZ)] * 3, F3)
    assert be_compose(u, [one, one]).ring == ZZ
    # without a ring, partial_compose builds its unit over the inputs' ring
    x3, y3 = S(3).el(F3, (1, 2, 1, 3, 2)), S(2).el(F3, (1, 2, 1))
    val = partial_compose("bf", 2, x3, y3)
    assert val.ring == F3
    assert val == partial_compose("bf", 2, x3, y3, F3)
    assert dict(val.terms) == {
        (1, 2, 1, 4, 2, 3, 2): 1,
        (1, 2, 3, 1, 4, 3, 2): 2,
        (1, 2, 3, 2, 1, 4, 2): 2,
    }


def test_degree_zero_reduces_to_sigma():
    for kind in ("be", "bf"):
        for u in all_perms(2):
            for v1 in all_perms(2):
                for v2 in all_perms(2):
                    expected = sigma_compose(u, [v1, v2])
                    if kind == "be":
                        val = be_compose(
                            E(2).el(ZZ, (u,)),
                            [E(2).el(ZZ, (v1,)), E(2).el(ZZ, (v2,))],
                        )
                        assert dict(val.terms) == {(expected,): 1}
                    else:
                        val = surj_compose(
                            "bf",
                            S(2).el(ZZ, u.images),
                            [S(2).el(ZZ, v1.images), S(2).el(ZZ, v2.images)],
                        )
                        assert dict(val.terms) == {expected.images: 1}


def _basis_triples(comps, max_degree):
    for D in range(0, max_degree + 1):
        for d0 in range(D + 1):
            for d1 in range(D + 1 - d0):
                d2 = D - d0 - d1
                for b0 in comps[0].basis(d0):
                    for b1 in comps[1].basis(d1):
                        for b2 in comps[2].basis(d2):
                            yield b0, b1, b2


def test_be_recursive_equals_ez_composite():
    engine = be_engine()
    for sizes in ((1, 2), (2, 2)):
        comps = [E(2), E(sizes[0]), E(sizes[1])]
        for b0, b1, b2 in _basis_triples(comps, 2):
            els = [comps[i].el(ZZ, b) for i, b in enumerate((b0, b1, b2))]
            assert engine_compose(engine, els[0], els[1:]) == be_compose(
                els[0], els[1:]
            )


def test_surj_recursive_equals_k_division():
    engine = surj_engine("bf")
    for sizes in ((1, 2), (2, 2)):
        comps = [S(2), S(sizes[0]), S(sizes[1])]
        for b0, b1, b2 in _basis_triples(comps, 2):
            els = [comps[i].el(ZZ, b) for i, b in enumerate((b0, b1, b2))]
            assert engine_compose(engine, els[0], els[1:]) == surj_compose(
                "bf", els[0], els[1:]
            )


def test_structure_maps_are_chain_maps():
    for kind in ("be", "bf"):
        comps = (
            [E(2), E(2), E(2)] if kind == "be" else [S(2), S(2), S(2)]
        )
        dom = TensorComplex(tuple(comps))
        for D in range(0, 3):
            for gen in dom.basis(D):
                x = dom.el(ZZ, gen)
                def apply(el):
                    total = None
                    for g, c in el.terms.items():
                        els = [comps[i].el(ZZ, g[i], 1) for i in range(3)]
                        if kind == "be":
                            v = c * be_compose(els[0], els[1:])
                        else:
                            v = c * surj_compose("bf", els[0], els[1:])
                        total = v if total is None else total + v
                    if total is None:
                        target = E(4) if kind == "be" else S(4)
                        total = target.zero(ZZ, el.degree)
                    return total
                assert apply(boundary(x)) == boundary(apply(x))


def test_twisted_equivariance_of_engine():
    # O(g^ x) = O_Sigma(g^) O(tau_g x) on sampled inputs
    engine = surj_engine("bf")
    g = Perm((2, 1))
    h1 = Perm((2, 1))
    h2 = Perm.identity(2)
    x = S(2).el(ZZ, (1, 2, 1))
    y1 = S(2).el(ZZ, (1, 2, 1))
    y2 = S(2).el(ZZ, (2, 1))
    from chainops.complexes import act

    lhs = engine_compose(
        engine, act(g, x), [act(h1, y1), act(h2, y2)]
    )
    osig = sigma_compose(g, [h1, h2])
    kos = koszul_sign(g.inverse(), [y1.degree, y2.degree])
    rhs = kos * act(osig, engine_compose(engine, x, [y2, y1]))
    assert lhs == rhs


def test_engine_outputs_in_image_of_contraction():
    # twisted uniqueness hypothesis: basis tensors land in Im(H_s)
    from chainops.complexes import contract
    from chainops.surjections import is_basis_gen

    engine = surj_engine("bf")
    comps = [S(2), S(1), S(2)]
    for b0, b1, b2 in _basis_triples(comps, 2):
        if not (is_basis_gen(b0) and is_basis_gen(b1) and is_basis_gen(b2)):
            continue
        els = [comps[i].el(ZZ, b) for i, b in enumerate((b0, b1, b2))]
        val = engine_compose(engine, els[0], els[1:])
        if val.degree > 0:
            assert contract(val).is_zero()


def test_clean_inputs_clean_outputs():
    comps = [S(2), S(2), S(2)]
    for b0, b1, b2 in _basis_triples(comps, 3):
        val = surj_compose(
            "bf",
            comps[0].el(ZZ, b0),
            [comps[1].el(ZZ, b1), comps[2].el(ZZ, b2)],
        )
        if is_clean_gen(b0) and is_clean_gen(b1) and is_clean_gen(b2):
            assert all(is_clean_gen(g) for g in val.terms)


def test_iterated_partials_equal_full():
    for s1, s2 in ((1, 2), (2, 2)):
        comps = [S(2), S(s1), S(s2)]
        for b0, b1, b2 in _basis_triples(comps, 2):
            x = comps[0].el(ZZ, b0)
            y1 = comps[1].el(ZZ, b1)
            y2 = comps[2].el(ZZ, b2)
            full = surj_compose("bf", x, [y1, y2])
            step1 = partial_compose("bf", 1, x, y1)
            acc = None
            for g, c in step1.terms.items():
                t = partial_compose(
                    "bf", s1 + 1, step1.complex.el(ZZ, g, c), y2
                )
                acc = t if acc is None else acc + t
            if acc is None:
                acc = surjection_complex("bf", s1 + s2).zero(ZZ, full.degree)
            assert acc == full


def test_associativity_diagrams():
    for kind in ("be", "bf"):
        check = family_associativity(kind, 2, (1, 2), ((1,), (1, 1)), 1)
        assert check.ok, check.line()


def test_tr_quotient_square():
    for sizes in ((1, 2), (2, 2)):
        comps = [E(2), E(sizes[0]), E(sizes[1])]
        for b0, b1, b2 in _basis_triples(comps, 1):
            X = comps[0].el(ZZ, b0)
            Y1 = comps[1].el(ZZ, b1)
            Y2 = comps[2].el(ZZ, b2)
            lhs = table_reduction("bf", be_compose(X, [Y1, Y2]))
            rhs = surj_compose(
                "bf",
                table_reduction("bf", X),
                [table_reduction("bf", Y1), table_reduction("bf", Y2)],
            )
            assert lhs == rhs


def test_quotient_square_on_fundamental_simplices():
    # the quotient square evaluated on fundamental simplices
    x = (1, 2, 1)
    ys = ((1, 2, 1), (2, 1, 2))
    X = E(2).el(ZZ, fundamental_simplex(x))
    Ys = [E(2).el(ZZ, fundamental_simplex(y)) for y in ys]
    lhs = table_reduction("bf", be_compose(X, Ys))
    rhs = surj_compose(
        "bf", S(2).el(ZZ, x), [S(2).el(ZZ, y) for y in ys]
    )
    assert lhs == rhs


def test_sigma_suite_runs_clean():
    report = sigma_suite(max_r=2, max_size=2, assoc_bound=2)
    assert report.ok, repr(report)


def test_ms_aj_structure_maps_are_chain_maps():
    # the conjugated flavors inherit the chain-map property exactly
    for flavor in ("ms", "aj"):
        Sf = lambda n: surjection_complex(flavor, n)
        comps = [Sf(2), Sf(1), Sf(2)]
        dom = TensorComplex(tuple(comps))
        target = Sf(3)

        def apply(el):
            total = None
            for g, c in el.terms.items():
                els = [comps[i].el(ZZ, g[i], 1) for i in range(3)]
                v = c * surj_compose(flavor, els[0], els[1:])
                total = v if total is None else total + v
            if total is None:
                total = target.zero(ZZ, el.degree)
            return total

        for D in range(0, 3):
            for gen in dom.basis(D):
                x = dom.el(ZZ, gen)
                assert apply(boundary(x)) == boundary(apply(x)), (flavor, gen)


def test_ms_aj_degree_zero_against_sigma():
    from chainops.surjections import iso

    for flavor in ("ms", "aj"):
        Sf = lambda n: surjection_complex(flavor, n)
        for u in all_perms(2):
            for v in all_perms(2):
                val = surj_compose(
                    flavor,
                    Sf(2).el(ZZ, u.images),
                    [Sf(2).el(ZZ, v.images), Sf(1).el(ZZ, (1,))],
                )
                # conjugation through bf: signs are parities for aj, +1 for ms
                expected_gen = sigma_compose(u, [v, Perm.identity(1)]).images
                coeff = val.coeff(expected_gen)
                if flavor == "ms":
                    assert coeff == 1
                else:
                    assert coeff == u.parity() * v.parity() * Perm(
                        expected_gen
                    ).parity()


def test_dropped_engine_is_freed():
    engine = TwistedOperadMap(SurjectionComponents("bf"))
    assert engine.domain((2, 1, 2)) is engine.domain((2, 1, 2))
    ref = weakref.ref(engine)
    del engine
    gc.collect()
    assert ref() is None



def test_morphism_squares_suite_reports_first_counterexample(monkeypatch):
    import chainops.suites

    calls = []

    def wrong_compose(flavor, outer, inners, ring=ZZ):
        calls.append((outer, inners))
        return None

    monkeypatch.setattr(chainops.suites, "surj_compose", wrong_compose)
    [check] = [
        c
        for c in chainops.suites.morphism_squares_suite().checks
        if c.name.startswith("TR quotient square")
    ]
    assert not check.ok
    first = TensorComplex((sym_eg(2), sym_eg(1), sym_eg(2))).basis(0)
    assert check.counterexample == next(iter(first))
    assert len(calls) == 1
