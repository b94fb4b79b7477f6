"""Acceptance criteria, one test per criterion, each at its stated bound
with exact (zero-tolerance) comparisons.  Prints one PASS/FAIL line per
criterion.

Each criterion that names a suite runs `run_suite(name)` with no options,
which is exactly `chainops verify --suite name` at its defaults, and
reports the suite's first failing check.  Criterion 8 also evaluates
`action_for` on M(5) mod 5 and M(3) mod 3, which no suite holds, under
the same clock and the same report."""

import time

from chainops.complexes import contract
from chainops.minimal import minimal_complex
from chainops.rings import GF, ZZ
from chainops.suites import run_suite
from chainops.surjections import surjection_complex


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def suite_criterion(number, name, suite, bound=None, extra=()):
    """Criterion `number` is `chainops verify --suite <suite>` at its
    defaults, plus the `(description, check)` pairs in `extra` that no suite
    holds, all within `bound` seconds where one is stated."""
    t0 = time.time()
    failed = [desc for desc, check in extra if not check()]
    rep = run_suite(suite)
    elapsed = time.time() - t0
    failed += [c.line() for c in rep.checks if not c.ok]
    detail = failed[:1]
    if bound is not None:
        detail.append(f"{elapsed:.1f}s")
    ok = not failed and (bound is None or elapsed < bound)
    report(number, name, ok, "; ".join(detail))


def test_criterion_1_contraction_suite():
    suite_criterion(1, "contraction identities, all complexes, degrees <= 4", "contracted", 60)


def test_criterion_2_golden_boundaries():
    suite_criterion(2, "golden boundary sign tables reproduced bit-exact", "golden-boundaries")


def test_criterion_3_sign_identities():
    suite_criterion(3, "p = c.delta.tau_f (n<=4, k<=4) and the golden sign values", "signs")


def test_criterion_4_isomorphism_suite():
    suite_criterion(4, "isomorphism suite exhaustive (n<=4, k<=3)", "isos")


def test_criterion_5_tr_pr():
    suite_criterion(5, "TR/PR roundtrips, dichotomy, fundamental 7-simplex", "trpr")


def test_criterion_6_minimal_suite():
    suite_criterion(6, "minimal-model suite (pi.phi, lambda, diagonals)", "minimal")


def test_criterion_7_join_homotopy_witnesses():
    suite_criterion(7, "join homotopies and coinvariant witnesses (p=3, ell=2)", "witnesses", 120)


def test_criterion_8_berger_fresse_action():
    from chainops.action import action_for, steenrod_constant
    from chainops.simplex import fundamental, tensor_power

    F5, F3 = GF(5), GF(3)

    def degree8_mod5():
        val = action_for(minimal_complex(5).el(F5, (0, 8)), 2)
        return val == tensor_power(2, 5).el(F5, (fundamental(2),) * 5, 4)

    def degree2_mod3():
        val = action_for(minimal_complex(3).el(F3, (0, 2)), 1)
        return val == tensor_power(1, 3).el(F3, (fundamental(1),) * 3, steenrod_constant(1, 3))

    extra = [
        ("action_for on the degree-8 class of M(5) mod 5", degree8_mod5),
        ("action_for on y_2 of M(3) mod 3", degree2_mod3),
    ]
    suite_criterion(8, "Berger-Fresse action suite", "action", 300, extra)


def test_criterion_9_operads():
    suite_criterion(9, "operad axioms, goldens, recursive = closed", "operads")


def test_criterion_10_operad_morphisms():
    suite_criterion(10, "TR quotient square and S -> Z square", "morphisms")


def test_criterion_11_text_sanity():
    S4 = surjection_complex("bf", 4)
    h = contract(S4.el(ZZ, (1, 4, 3, 2, 4)))
    ok = dict(h.terms) == {(1, 2, 4, 3, 2, 4): 1, (1, 2, 3, 4, 3, 4): 1}
    report(11, "H_4(1,4,3,2,4) = (1,2,4,3,2,4) + (1,2,3,4,3,4)", ok)
