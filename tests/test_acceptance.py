"""Acceptance criteria, one test per criterion, each at its stated bound
with exact (zero-tolerance) comparisons.  Prints one PASS/FAIL line per
criterion."""

import time
from itertools import product as _product

import pytest

from chainops.complexes import TensorComplex, act, boundary, contract
from chainops.maclane import sym_eg
from chainops.minimal import minimal_complex
from chainops.morphisms import (
    fundamental_simplex,
    prism_map,
    roundtrip_check,
    table_reduction,
)
from chainops.operads import (
    be_compose,
    be_engine,
    engine_compose,
    partial_compose,
    sigma_compose,
    surj_compose,
    surj_engine,
)
from chainops.perms import Perm, all_perms
from chainops.rings import GF, ZZ
from chainops.suites import (
    contracted_suite,
    family_associativity,
    golden_boundaries_suite,
    minimal_suite,
    morphism_squares_suite,
    sigma_suite,
    witnesses_suite,
)
from chainops.surjections import (
    caesuras,
    sign_c,
    sign_delta,
    sign_p,
    surjection_complex,
    tau_f,
    iso,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_contraction_suite():
    t0 = time.time()
    rep = contracted_suite(4, 4)
    elapsed = time.time() - t0
    report(
        1,
        "contraction identities, all complexes, degrees <= 4",
        rep.ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_golden_boundaries():
    rep = golden_boundaries_suite()
    report(2, "golden boundary sign tables reproduced bit-exact", rep.ok)


def test_criterion_3_sign_identities():
    ok = True
    for n in range(2, 5):
        S = surjection_complex("bf", n)
        for k in range(0, 5):
            for x in S.basis(k):
                if sign_p(x) != sign_c(x) * sign_delta(x) * tau_f(x):
                    ok = False
    x = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)
    ok = ok and (sign_c(x), sign_delta(x), tau_f(x), sign_p(x)) == (1, -1, -1, 1)
    report(3, "p = c.delta.tau_f (n<=4, k<=4) and the golden sign values", ok)


def test_criterion_4_isomorphism_suite():
    ok = True
    detail = ""
    for src_fl, dst_fl, sign_fn in (
        ("bf", "ms", sign_c),
        ("aj", "ms", sign_p),
        ("aj", "bf", lambda x: sign_p(x) * sign_c(x)),
    ):
        for n in range(2, 5):
            A = surjection_complex(src_fl, n)
            B = surjection_complex(dst_fl, n)
            perms = list(all_perms(n))
            for k in range(0, 4):
                for gen in A.basis(k):
                    x = A.el(ZZ, gen)
                    fwd = iso(src_fl, dst_fl, x)
                    if iso(src_fl, dst_fl, boundary(x)) != boundary(fwd):
                        ok, detail = False, f"chain {src_fl}->{dst_fl} {gen}"
                    if iso(src_fl, dst_fl, contract(x)) != contract(fwd):
                        ok, detail = False, f"contraction {src_fl}->{dst_fl} {gen}"
                    if iso(dst_fl, src_fl, fwd) != x:
                        ok, detail = False, f"inverse {src_fl}->{dst_fl} {gen}"
                    # equivariance as the scalar identity
                    # s(gx) asign_src(g, x) = asign_dst(g, x) s(x)
                    for g in perms:
                        (sa, gx), = A.act_terms(g, gen)
                        (sb, _), = B.act_terms(g, gen)
                        if sign_fn(gx) * sa != sb * sign_fn(gen):
                            ok, detail = False, f"equivariance {src_fl}->{dst_fl} {gen} {g}"
                    if not ok:
                        break
                if not ok:
                    break
    # triple composite is the identity
    for n in range(2, 5):
        A = surjection_complex("aj", n)
        for k in range(0, 4):
            for gen in A.basis(k):
                x = A.el(ZZ, gen)
                if iso("ms", "aj", iso("bf", "ms", iso("aj", "bf", x))) != x:
                    ok, detail = False, f"roundtrip {gen}"
    report(4, "isomorphism suite exhaustive (n<=4, k<=3)", ok, detail)


def test_criterion_5_tr_pr():
    ok = True
    detail = ""
    for flavor in ("bf", "ms", "aj"):
        for n in range(2, 5):
            rep = roundtrip_check(flavor, n, 3)
            if not rep.ok:
                ok, detail = False, f"{flavor} n={n}"
    # TR commutes with contractions
    for flavor in ("bf", "ms", "aj"):
        for n in (2, 3):
            E = sym_eg(n)
            for k in range(0, 4):
                for gen in E.basis(k):
                    x = E.el(ZZ, gen)
                    if table_reduction(flavor, contract(x)) != contract(
                        table_reduction(flavor, x)
                    ):
                        ok, detail = False, f"TR h-commute {flavor} {gen}"
    x = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)
    fs = fundamental_simplex(x)
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
    ok = ok and list(fs) == expect
    report(5, "TR/PR roundtrips, dichotomy, fundamental 7-simplex", ok, detail)


def test_criterion_6_minimal_suite():
    rep = minimal_suite()
    report(6, "minimal-model suite (pi.phi, lambda, diagonals)", rep.ok)


def test_criterion_7_join_homotopy_witnesses():
    t0 = time.time()
    rep = witnesses_suite(3, 2, max_k=2, max_degree=4)
    elapsed = time.time() - t0
    report(
        7,
        "join homotopies and coinvariant witnesses (p=3, ell=2)",
        rep.ok and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_criterion_8_berger_fresse_action():
    from chainops.action import (
        action_for,
        bf_action,
        bf_action_standard,
        bf_action_terms,
        steenrod_constant,
    )
    from chainops.simplex import fundamental, tensor_power

    t0 = time.time()
    ok = True
    detail = ""
    for n in (2, 3):
        S = surjection_complex("bf", n)
        std = bf_action_standard(n)
        for k in range(0, 3):
            for gen in S.basis(k):
                for m in range(0, 4):
                    x = S.el(ZZ, gen)
                    if bf_action(x, m) != std.apply(x, m):
                        ok, detail = False, f"closed!=recursive {n} {gen} {m}"
    terms = bf_action_terms((1, 2, 1, 3, 2, 1, 3), 5)
    target = ((0, 1, 2, 4, 5), (0, 1, 2, 3, 4), (2, 5))
    ok = ok and [c for c, g in terms if g == target] == [1]
    for n, m, k in ((2, 1, 2), (3, 1, 3), (2, 2, 3)):
        S = surjection_complex("bf", n)
        for gen in S.basis(k):
            if not bf_action(S.el(ZZ, gen), m).is_zero():
                ok, detail = False, f"nonzero above bound {gen}"
    F5 = GF(5)
    val = action_for(minimal_complex(5).el(F5, (0, 8)), 2)
    T = tensor_power(2, 5)
    ok = ok and val == T.el(F5, (fundamental(2),) * 5, 4)
    ok = ok and steenrod_constant(2, 5) == 4
    F3 = GF(3)
    v13 = action_for(minimal_complex(3).el(F3, (0, 2)), 1)
    ok = ok and v13 == tensor_power(1, 3).el(
        F3, (fundamental(1),) * 3, steenrod_constant(1, 3)
    )
    elapsed = time.time() - t0
    report(8, "Berger-Fresse action suite", ok and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_9_operads():
    S = lambda n: surjection_complex("bf", n)
    E = lambda n: sym_eg(n)
    ok = True
    detail = ""
    rep = sigma_suite(max_r=3, max_size=3, assoc_bound=3)
    if not rep.ok:
        ok, detail = False, "sigma axioms"
    # recursive = closed for both families at (2;1,2) and (2;2,2), deg <= 2
    beng, seng = be_engine(), surj_engine("bf")
    for sizes in ((1, 2), (2, 2)):
        comps_e = [E(2), E(sizes[0]), E(sizes[1])]
        comps_s = [S(2), S(sizes[0]), S(sizes[1])]
        for D in range(0, 3):
            for d0 in range(D + 1):
                for d1 in range(D + 1 - d0):
                    d2 = D - d0 - d1
                    for b0 in comps_e[0].basis(d0):
                        for b1 in comps_e[1].basis(d1):
                            for b2 in comps_e[2].basis(d2):
                                els = [
                                    comps_e[0].el(ZZ, b0),
                                    comps_e[1].el(ZZ, b1),
                                    comps_e[2].el(ZZ, b2),
                                ]
                                if engine_compose(beng, els[0], els[1:]) != be_compose(
                                    els[0], els[1:]
                                ):
                                    ok, detail = False, "be mismatch"
                    for b0 in comps_s[0].basis(d0):
                        for b1 in comps_s[1].basis(d1):
                            for b2 in comps_s[2].basis(d2):
                                els = [
                                    comps_s[0].el(ZZ, b0),
                                    comps_s[1].el(ZZ, b1),
                                    comps_s[2].el(ZZ, b2),
                                ]
                                if engine_compose(seng, els[0], els[1:]) != surj_compose(
                                    "bf", els[0], els[1:]
                                ):
                                    ok, detail = False, "surj mismatch"
    # goldens
    u = Perm((2, 3, 1))
    vs = [Perm((2, 1)), Perm((3, 1, 2, 4)), Perm((3, 2, 1))]
    ok = ok and sigma_compose(u, vs) == (5, 3, 4, 6, 9, 8, 7, 2, 1)
    x = S(3).el(ZZ, (1, 2, 1, 3, 2))
    full = surj_compose(
        "bf",
        x,
        [S(3).el(ZZ, (1, 2, 3, 1)), S(4).el(ZZ, (1, 2, 1, 4, 3)), S(2).el(ZZ, (1, 2, 1))],
    )
    ok = ok and full.coeff((1, 2, 4, 5, 4, 7, 2, 3, 1, 8, 9, 8, 7, 6)) == -1
    pc = partial_compose("bf", 2, x, S(2).el(ZZ, (1, 2, 1)))
    ok = ok and dict(pc.terms) == {
        (1, 2, 1, 4, 2, 3, 2): 1,
        (1, 2, 3, 1, 4, 3, 2): -1,
        (1, 2, 3, 2, 1, 4, 2): -1,
    }
    for kind in ("be", "bf"):
        for shape in (
            (2, (1, 2), ((1,), (1, 1))),
            (2, (2, 1), ((1, 1), (1,))),
        ):
            chk = family_associativity(kind, *shape, 1)
            if not chk.ok:
                ok, detail = False, f"associativity {kind} {shape}"
    report(9, "operad axioms, goldens, recursive = closed", ok, detail)


def test_criterion_10_operad_morphisms():
    rep = morphism_squares_suite()
    report(10, "TR quotient square and S -> Z square", rep.ok)


def test_criterion_11_text_sanity():
    S4 = surjection_complex("bf", 4)
    h = contract(S4.el(ZZ, (1, 4, 3, 2, 4)))
    ok = dict(h.terms) == {(1, 2, 4, 3, 2, 4): 1, (1, 2, 3, 4, 3, 4): 1}
    report(11, "H_4(1,4,3,2,4) = (1,2,4,3,2,4) + (1,2,3,4,3,4)", ok)
