"""Operad structure maps: symmetric-group operad, Barratt-Eccles,
surjection operad, partial compositions, axioms, and morphism squares."""

import gc
import sys
import weakref
from functools import partial
from itertools import product as _product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.complexes import TensorComplex, boundary, tensor_elements
from chainops.errors import GuardExceeded, InvalidInput, set_term_guard, term_guard
from chainops.maclane import sym_eg
from chainops.morphisms import fundamental_simplex, table_reduction
from chainops.operads import (
    be_compose,
    be_engine,
    component,
    domain,
    engine_compose,
    k_divisions,
    oplus,
    partial_compose,
    sigma_compose,
    surj_compose,
    surj_engine,
)
from chainops.perms import Perm, all_perms, block_perm, koszul_sign
from chainops.procedure import TwistedOperadMap
from chainops.rings import GF, ZZ
from chainops.suites import family_associativity, sigma_suite
from chainops.surjections import is_clean_gen, surjection_complex

S = lambda n: surjection_complex("bf", n)
E = lambda n: sym_eg(n)


def test_sigma_compose_block_golden():
    u = Perm((2, 3, 1))
    vs = [Perm((2, 1)), Perm((3, 1, 2, 4)), Perm((3, 2, 1))]
    assert sigma_compose(u, vs) == (5, 3, 4, 6, 9, 8, 7, 2, 1)


@st.composite
def block_compositions(draw):
    """(u, vs): u in Sigma_r, r <= 4, and one permutation per block, of at
    most 3 letters each."""
    r = draw(st.integers(1, 4))
    u = Perm(draw(st.permutations(range(1, r + 1))))
    sizes = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    vs = [Perm(draw(st.permutations(range(1, s + 1)))) for s in sizes]
    return u, vs


@settings(max_examples=200)
@given(block_compositions())
def test_sigma_compose_is_the_direct_sum_after_the_block_permutation(case):
    # an independent construction: the block permutation u_*(sizes), then
    # v_1 + ... + v_r acting blockwise, the direct sum built here by hand
    # (oplus itself calls sigma_compose)
    u, vs = case
    direct_sum, start = [], 0
    for v in vs:
        direct_sum += [start + i for i in v]
        start += len(v)
    expected = Perm(direct_sum) * block_perm(u, [len(v) for v in vs])
    assert sigma_compose(u, vs) == expected


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
                            S(2).el(ZZ, u),
                            [S(2).el(ZZ, v1), S(2).el(ZZ, v2)],
                        )
                        assert dict(val.terms) == {expected: 1}


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


@st.composite
def surjection_tensors(draw):
    """Basis generators (x; y_1, ..., y_r) of S^bf: r <= 3, inner arities
    <= 3 and total degree <= 3, one arity and one degree past the
    exhaustive check above."""
    r = draw(st.integers(1, 3))
    arities = [r] + draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    left, gens = 3, []
    for n in arities:
        # S(1) has its identity only
        k = draw(st.integers(0, left if n > 1 else 0))
        gens.append(draw(st.sampled_from(list(S(n).basis(k)))))
        left -= k
    return arities, gens


@settings(max_examples=200, deadline=None)
@given(surjection_tensors())
def test_surj_compose_equals_engine_past_the_exhaustive_check(case):
    arities, gens = case
    els = [S(n).el(ZZ, g) for n, g in zip(arities, gens)]
    assert surj_compose("bf", els[0], els[1:]) == engine_compose(
        surj_engine("bf"), els[0], els[1:]
    )


def _foreign_inputs():
    """Composites handed inputs of another family, flavor or ring."""
    from chainops.maclane import cyc_eg
    from chainops.simplex import simplex_complex

    ms = surjection_complex("ms", 2).el(ZZ, (1, 2, 1))
    x, one = S(2).el(ZZ, (1, 2, 1)), S(1).basepoint(ZZ)
    ms_one = surjection_complex("ms", 1).basepoint(ZZ)
    c2 = cyc_eg(2).el(ZZ, (0, 1))
    return {
        "bf-on-ms": lambda: surj_compose("bf", ms, [ms, ms]),
        "bf-on-an-ms-inner": lambda: surj_compose("bf", x, [one, ms_one]),
        "bf-engine-on-ms": lambda: engine_compose(surj_engine("bf"), ms, [ms, ms]),
        "partial-bf-on-ms": lambda: partial_compose("bf", 1, ms, ms),
        "partial-on-N(ESigma)": lambda: partial_compose("bf", 1, E(2).basepoint(ZZ), one),
        "partial-on-a-simplex": lambda: partial_compose(
            "bf", 1, simplex_complex(1).el(ZZ, (0, 1)), one
        ),
        "be-on-bf": lambda: be_compose(x, [one, one]),
        "be-on-N(EC_2)": lambda: be_compose(c2, [c2, c2]),
        "be-engine-on-bf": lambda: engine_compose(be_engine(), x, [one, one]),
        "engine-over-F3-on-Z": lambda: engine_compose(surj_engine("bf", GF(3)), x, [one, one]),
    }


@pytest.mark.parametrize("compose", _foreign_inputs().values(), ids=_foreign_inputs().keys())
def test_composites_refuse_foreign_inputs(compose):
    with pytest.raises(InvalidInput):
        compose()


def test_ms_composite_is_conjugated_not_read_as_bf():
    # the bf formula on these S^ms inputs reads - on the last term
    x = surjection_complex("ms", 2).el(ZZ, (1, 2, 1))
    assert repr(surj_compose("ms", x, [x, x])) == (
        "- (1,2,1,3,4,3,1) - (1,2,3,4,3,2,1) + (1,3,4,3,1,2,1)"
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


# the shapes the operad benchmark sweeps: (kind, parameters, max degree);
# for "bf" the parameters are the arity and the largest ambient dimension
WORKLOAD_SHAPES = (
    ("surj", (2, 2, 2), 3),
    ("surj", (2, 1, 3), 2),
    ("surj", (3, 1, 2, 1), 2),
    ("be", (2, 2, 2), 2),
    ("be", (2, 1, 3), 1),
    ("be", (3, 2, 1, 1), 1),
    ("tr", ("bf", 3), 2),
    ("tr", ("ms", 3), 2),
    ("tr", ("aj", 3), 2),
    ("bf", (2, 3), 3),
    ("bf", (3, 2), 2),
)


@pytest.mark.parametrize("ring", [ZZ, GF(1009)], ids=str)
def test_closed_equals_recursive_on_the_workload_shapes(ring):
    from chainops.action import BFActionStandard, bf_action
    from chainops.morphisms import table_reduction_standard

    engines = {"surj": surj_engine("bf", ring), "be": be_engine(ring)}
    closed = {"surj": partial(surj_compose, "bf"), "be": be_compose}
    for kind, params, max_degree in WORKLOAD_SHAPES:
        for k in range(max_degree + 1):
            if kind in engines:
                comp = S if kind == "surj" else E
                dom = TensorComplex(tuple(map(comp, params)))
                for gen in dom.basis(k):
                    xs = [f.el(ring, g) for f, g in zip(dom.factors, gen)]
                    want = closed[kind](xs[0], xs[1:], ring)
                    assert engine_compose(engines[kind], xs[0], xs[1:]) == want, gen
            elif kind == "tr":
                std = table_reduction_standard(*params, ring)
                for gen in E(params[1]).basis(k):
                    x = E(params[1]).el(ring, gen)
                    assert std(x) == table_reduction(params[0], x), (params, gen)
            else:
                n, max_m = params
                std = BFActionStandard(n, ring)
                for m in range(max_m + 1):
                    for gen in S(n).basis(k):
                        x = S(n).el(ring, gen)
                        assert std.apply(x, m) == bf_action(x, m), (gen, m)


def _calls_to(fns, run):
    """run()'s value and the number of calls it made to the functions fns."""
    codes = {f.__code__ for f in fns}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = run()
    finally:
        sys.setprofile(old)
    return value, count


def _twisted_cases(ring):
    """(engine, twisted generator, context, recursive run, closed run)."""
    from chainops.action import BFActionStandard, bf_action

    x, ys = S(2).el(ring, (2, 1, 2)), [S(2).el(ring, (1, 2, 1)), S(3).el(ring, (2, 1, 3, 1))]
    t, e = Perm((2, 1)), Perm((1, 2))
    u = E(2).el(ring, (t, e))
    vs = [E(2).el(ring, (e, t)), E(3).el(ring, (Perm((2, 1, 3)), Perm((1, 3, 2))))]
    z = S(3).el(ring, (2, 1, 3, 1))
    surj, be, bf = surj_engine("bf", ring), be_engine(ring), BFActionStandard(3, ring)
    return [
        (surj, ((2, 1, 2), (1, 2, 1), (2, 1, 3, 1)), (2, 2, 3),
         lambda: engine_compose(surj, x, ys), lambda: surj_compose("bf", x, ys)),
        (be, ((t, e), (e, t), (Perm((2, 1, 3)), Perm((1, 3, 2)))), (2, 2, 3),
         lambda: engine_compose(be, u, vs), lambda: be_compose(u, vs)),
        (bf, (2, 1, 3, 1), 2, lambda: bf.apply(z, 2), lambda: bf_action(z, 2)),
    ]


@pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=str)
def test_engines_twist_values_term_by_term(ring):
    # a twisted generator's value is pushed through the twist term by
    # term into the caller's sum: no Element-level action runs
    from chainops import action, complexes

    for engine, gen, ctx, recursive, closed in _twisted_cases(ring):
        assert engine.split(gen, ctx)[2] is not None
        value, calls = _calls_to((complexes.act, action.perm_act), recursive)
        assert calls == 0
        assert value == closed()


def _count_calls(monkeypatch, owner, name, calls, key):
    """Count the calls to owner.name, an instance's method or a module's
    function, in calls[key]."""
    real = getattr(owner, name)

    def counted(*args):
        calls[key] = calls.get(key, 0) + 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def test_each_operad_tensor_is_decomposed_once(monkeypatch):
    # a warm engine on a twisted (2,2,2) basis tensor decomposes it once,
    # each factor once, and reads no bf decomposition sign from act_terms
    # (the twist acts on the value, in S(4), which is not counted)
    engine = surj_engine("bf", GF(5))
    gen = ((2, 1, 2), (1, 2, 1), (2, 1))
    x, ys = S(2).el(GF(5), gen[0]), [S(2).el(GF(5), y) for y in gen[1:]]
    want = engine_compose(engine, x, ys)
    assert engine.split(gen, (2, 2, 2))[2] is not None
    calls = {}
    _count_calls(monkeypatch, domain("bf", (2, 2, 2)), "decompose", calls, "tensor")
    _count_calls(monkeypatch, S(2), "decompose", calls, "factor")
    _count_calls(monkeypatch, S(2), "act_terms", calls, "act_terms")
    assert engine_compose(engine, x, ys) == want
    assert calls == {"tensor": 1, "factor": 3}


def test_surj_compose_reads_no_factory_per_generator(monkeypatch):
    # the complexes a composite reads are found once per call: a sum of
    # many tensors, most of them twisted, asks the factory as often as one
    import chainops.operads
    import chainops.surjections

    x = sum((S(3).el(ZZ, g) for g in S(3).basis(2)), S(3).zero(ZZ, 2))
    ys = [S(2).el(ZZ, (1, 2, 1)), S(1).el(ZZ, (1,)), S(2).el(ZZ, (2, 1))]
    counts = []
    for outer in (S(3).el(ZZ, (2, 1, 3, 1, 3)), x):
        surj_compose("bf", outer, ys)
        calls = {}
        for module in (chainops.operads, chainops.surjections):
            _count_calls(monkeypatch, module, "surjection_complex", calls, "factory")
        surj_compose("bf", outer, ys)
        monkeypatch.undo()
        counts.append(calls.get("factory", 0))
    assert len(x) > 30 and counts[0] == counts[1] <= 1, counts


@pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=str)
def test_engines_trip_the_term_guard_on_twisted_inputs(ring):
    # cold engines under a fixed guard trip where the recursion first
    # builds a sum above it (the surjection, Barratt-Eccles and action
    # cases in turn); one more term and they pass
    old = term_guard()
    try:
        for i, limit in enumerate((15, 11, 12)):
            set_term_guard(limit)
            with pytest.raises(GuardExceeded) as err:
                _twisted_cases(ring)[i][3]()
            assert str(err.value) == f"formal sum holds {limit + 1} terms, above the guard {limit}"
            set_term_guard(limit + 1)
            _twisted_cases(ring)[i][3]()
    finally:
        set_term_guard(old)


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
                    Sf(2).el(ZZ, u),
                    [Sf(2).el(ZZ, v), Sf(1).el(ZZ, (1,))],
                )
                # conjugation through bf: signs are parities for aj, +1 for ms
                expected_gen = sigma_compose(u, [v, Perm.identity(1)])
                coeff = val.coeff(expected_gen)
                if flavor == "ms":
                    assert coeff == 1
                else:
                    assert coeff == u.parity() * v.parity() * Perm(
                        expected_gen
                    ).parity()


def test_dropped_engine_is_freed():
    engine = TwistedOperadMap("bf")
    assert engine.domain((2, 1, 2)) is engine.domain((2, 1, 2))
    ref = weakref.ref(engine)
    del engine
    gc.collect()
    assert ref() is None


def test_engines_read_the_composites_domains():
    """An engine's domains are the closed composites' own, from the one
    bounded memo, on the components its family names."""
    for family, engine in (("be", be_engine()), ("ms", surj_engine("ms", GF(3)))):
        for arities in ((2, 1, 2), (3, 2, 1, 1)):
            assert engine.domain(arities) is domain(family, arities)
            assert domain(family, arities).factors == tuple(
                component(family, n) for n in arities
            )
    assert component("be", 3) is sym_eg(3)
    assert component("bf", 3) is S(3)



def test_morphism_squares_suite_reports_first_counterexample(monkeypatch):
    import chainops.operads
    import chainops.suites

    calls = []
    be_compose = chainops.operads.be_compose

    # wrong on the quotient square's left side only: the action square
    # composes surjections, not Barratt-Eccles components
    def wrong_compose(outer, inners, ring=None):
        calls.append((outer, inners))
        return 2 * be_compose(outer, inners, ring)

    monkeypatch.setattr(chainops.operads, "be_compose", wrong_compose)
    [check] = [
        c
        for c in chainops.suites.morphism_squares_suite().checks
        if c.name.startswith("TR quotient square")
    ]
    assert not check.ok
    first = TensorComplex((sym_eg(2), sym_eg(1), sym_eg(2))).basis(0)
    assert check.counterexample == next(iter(first))
    assert len(calls) == 1
