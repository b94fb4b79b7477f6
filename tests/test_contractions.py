"""The procedure engine: tensor contractions, standard maps, homotopies,
uniqueness criteria, and the contraction validator."""

import ast
import inspect
import textwrap

import pytest

from chainops.complexes import (
    TensorComplex,
    act,
    boundary,
    contract,
    rho,
    tensor_elements,
)
from chainops.errors import InvalidInput
from chainops.groups import ProductGroup, SymmetricGroup
from chainops.maclane import MacLaneComplex, ez_maclane, maclane_complex, sym_eg
from chainops.procedure import (
    StandardHomotopy,
    StandardMap,
    first_fail,
    verify_contracted,
)
from chainops.perms import Perm
from chainops.rings import ZZ
from chainops.simplex import SimplexComplex, aw, simplex_complex, tensor_power
from chainops.surjections import SurjectionComplex, surjection_complex


def test_tensor_contraction_kills_basepoint_tensor():
    T = tensor_power(2, 2)
    iota = T.el(ZZ, ((0,), (0,)))
    assert contract(iota).is_zero()


def test_clean_tensors_span_kernel():
    # h(a (x) b) = 0 for a in Im(h_C): clean tensors are the kernel
    S = simplex_complex(2)
    T = tensor_power(2, 2)
    a = S.el(ZZ, (0, 1))  # = h(1), clean
    b = S.el(ZZ, (1, 2))
    assert contract(tensor_elements(T, a, b)).is_zero()


def test_h3_squared_zero_on_small_basis():
    T = tensor_power(2, 3)
    for k in range(0, 4):
        for gen in T.basis(k):
            assert contract(contract(T.el(ZZ, gen))).is_zero(), gen


def test_tensor_contraction_identity():
    T = tensor_power(2, 3)
    r = verify_contracted(T, 3)
    assert r.ok, repr(r)


def test_empty_tensor_invalid():
    with pytest.raises(InvalidInput):
        TensorComplex(())


def test_standard_map_constant_on_simplex():
    S = simplex_complex(3)
    phi = StandardMap(S, S)
    for v in range(4):
        assert phi(S.el(ZZ, (v,))) == S.el(ZZ, (0,))
    for k in (1, 2, 3):
        for gen in S.basis(k):
            assert phi(S.el(ZZ, gen)).is_zero()


def test_standard_map_identity_on_maclane():
    E = sym_eg(3)
    phi = StandardMap(E, E)
    for k in range(0, 3):
        for gen in E.basis(k):
            x = E.el(ZZ, gen)
            assert phi(x) == x


def test_standard_map_reproduces_aw_closed_formula():
    H, G = SymmetricGroup(2), SymmetricGroup(2)
    EP = maclane_complex(ProductGroup((H, G)))
    T = TensorComplex((maclane_complex(H), maclane_complex(G)))
    std = StandardMap(EP, T)
    check = first_fail(
        "standard map = AW",
        (
            (b, std(EP.el(ZZ, b)) == aw(EP.el(ZZ, b)))
            for k in range(0, 4)
            for b in EP.basis(k)
        ),
    )
    assert check.ok, check


def test_standard_map_is_chain_map():
    H, G = SymmetricGroup(2), SymmetricGroup(2)
    EP = maclane_complex(ProductGroup((H, G)))
    T = TensorComplex((maclane_complex(H), maclane_complex(G)))
    std = StandardMap(EP, T)
    for k in range(1, 4):
        for gen in EP.basis(k):
            x = EP.el(ZZ, gen)
            assert std(boundary(x)) == boundary(std(x))


def test_standard_map_commutes_with_contractions_maclane_domain():
    # a MacLane domain forces h-commutation on all elements
    H, G = SymmetricGroup(2), SymmetricGroup(2)
    EP = maclane_complex(ProductGroup((H, G)))
    T = TensorComplex((maclane_complex(H), maclane_complex(G)))
    std = StandardMap(EP, T)

    def cases():
        for k in range(0, 3):
            for b in EP.basis(k):
                x = EP.el(ZZ, b)
                yield b, std(contract(x)) == contract(std(x))

    check = first_fail("standard map commutes with h", cases())
    assert check.ok, check


def test_uniqueness_comparator_detects_difference():
    E = sym_eg(2)
    phi = StandardMap(E, E)
    check = first_fail(
        "phi = -phi",
        ((b, phi(E.el(ZZ, b)) == -1 * phi(E.el(ZZ, b))) for b in E.basis(1)),
    )
    assert not check.ok
    assert check.counterexample == next(iter(E.basis(1)))


def test_standard_homotopy_zero_when_maps_agree():
    E = sym_eg(3)
    phi = StandardMap(E, E)
    H = StandardHomotopy(lambda x: phi(x), lambda x: phi(x), E, E)
    for k in range(0, 3):
        for gen in E.basis(k):
            assert H(E.el(ZZ, gen)).is_zero()


def test_standard_homotopy_rho_vs_identity_is_contraction():
    E = sym_eg(3)
    H = StandardHomotopy(
        lambda x: rho(x), lambda x: x, E, E, equivariant=False
    )
    for k in range(0, 3):
        for gen in E.basis(k):
            x = E.el(ZZ, gen)
            assert H(x) == contract(x)


def test_standard_homotopy_identity_for_random_map_pair():
    # dH + Hd = phi1 - phi0 with phi0 = two-step basepoint map, phi1 = Id
    E = sym_eg(3)
    H = StandardHomotopy(
        lambda x: rho(x), lambda x: x, E, E, equivariant=False
    )
    for k in range(0, 4):
        for gen in E.basis(k):
            x = E.el(ZZ, gen)
            assert boundary(H(x)) + H(boundary(x)) == x - rho(x)


def test_verify_contracted_passes_for_simplex():
    assert verify_contracted(simplex_complex(4), 4).ok


class CorruptedBoundary(SimplexComplex):
    """Delta^m whose boundary flips one sign on the 2-faces."""

    def boundary_terms(self, gen):
        out = super().boundary_terms(gen)
        if len(gen) == 3 and out:
            c, g = out[0]
            out[0] = (-c, g)
        return out


def test_verify_contracted_catches_corrupted_boundary():
    bad = CorruptedBoundary(3)
    report = verify_contracted(bad, 3)
    assert not report.ok
    failing = [c for c in report.checks if not c.ok]
    assert failing and failing[0].counterexample is not None


def test_maclane_pattern_reps_match_full_verification():
    # the relabeling-class sweep is exact: force it and compare to honest
    from chainops import procedure

    E = sym_eg(3)
    full = verify_contracted(E, 3)
    old = procedure.PATTERN_THRESHOLD
    procedure.PATTERN_THRESHOLD = 1
    try:
        patterned = verify_contracted(E, 3)
        oracle = four_pass_checks(E, 3)
    finally:
        procedure.PATTERN_THRESHOLD = old
    # the one pass on the classes agrees check by check with the four-pass
    # oracle on the same classes
    assert [(c.name, c.ok, c.counterexample, c.checked) for c in patterned.checks] == oracle
    assert full.ok and patterned.ok
    # every check, the generator sweep of d equivariant included, counts
    # the class weights and so reports the full sweep's count
    assert [(c.name, c.checked) for c in patterned.checks] == [
        (c.name, c.checked) for c in full.checks
    ]
    # class sizes must add up to the full basis size
    for k in range(0, 4):
        total = sum(w for _, w in E.pattern_reps(k))
        assert total == E.basis_size(k) == len(list(E.basis(k)))


def test_standard_map_rejects_bad_degree0_seed():
    E = sym_eg(2)
    bad = StandardMap(E, E, degree0=lambda b: 2 * E.el(ZZ, b))
    with pytest.raises(InvalidInput):
        bad(E.el(ZZ, (E.group.identity,)))


def test_standard_homotopy_between_induced_maps():
    # two pointed set maps G -> G induce chain maps with equal augmentation;
    # the recursive homotopy satisfies dH + Hd = phi1 - phi0 throughout
    from chainops.groups import SymmetricGroup
    from chainops.maclane import InducedMap
    from chainops.perms import Perm

    E = sym_eg(3)
    swap = {
        Perm((1, 3, 2)): Perm((3, 2, 1)),
        Perm((3, 2, 1)): Perm((1, 3, 2)),
    }
    f1 = InducedMap(lambda g: swap.get(g, g), E, E, ZZ)
    f2 = InducedMap(lambda g: g.inverse(), E, E, ZZ)
    H = StandardHomotopy(f1, f2, E, E, equivariant=False)
    for k in range(0, 4):
        for gen in E.basis(k):
            x = E.el(ZZ, gen)
            assert boundary(H(x)) + H(boundary(x)) == f2(x) - f1(x)


def test_zero_results_carry_the_output_degree():
    # Element equality ignores the degree of zeros, so compare .degree
    from chainops.action import BFActionStandard
    from chainops.operads import surj_engine
    from chainops.surjections import surjection_complex

    E = sym_eg(2)
    x = E.el(ZZ, next(iter(E.basis(1))))
    phi = StandardMap(E, E)
    H = StandardHomotopy(phi, phi, E, E)
    assert H(x).is_zero() and H(x).degree == 2
    assert H(E.zero(ZZ, 1)).degree == 2

    S = simplex_complex(2)
    const = StandardMap(S, S)
    edge = S.el(ZZ, (0, 1))
    assert const(edge).is_zero() and const(edge).degree == 1
    assert const(S.zero(ZZ, 1)).degree == 1

    engine = surj_engine("bf")
    arities = (2, 1, 1)
    assert engine.apply(arities, engine.domain(arities).zero(ZZ, 1)).degree == 1

    std = BFActionStandard(2)
    S2 = surjection_complex("bf", 2)
    y = S2.el(ZZ, (1, 2, 1, 2))  # Phi = 0 when |y| > m(n-1)
    assert std.apply(y, 1).is_zero() and std.apply(y, 1).degree == 3
    assert std.apply(S2.zero(ZZ, 2), 1).degree == 3


# -- equivariance from generators: the brute-force oracle and negative controls


def brute_force_equivariant(cplx, max_degree, elements=None):
    """Whether d(g.x) = g.dx over the integers for every non-identity g
    (or every g in `elements`) and every basis generator x of degree
    <= max_degree.  An independent oracle for the generator sweep: it
    shares no code with verify_contracted."""
    group = cplx.group
    if elements is None:
        elements = [g for g in group.elements() if not group.is_identity(g)]

    def image(fn, x):
        # fn applied to the formal sum x, a dict of normalised generators
        out = {}
        for g, c in x.items():
            for c2, y in fn(g):
                y = cplx.normalize(y)
                if y is not None:
                    out[y] = out.get(y, 0) + c * c2
        return {y: c for y, c in out.items() if c}

    for k in range(max_degree + 1):
        for x in cplx.basis(k):
            dx = image(cplx.boundary_terms, {x: 1})
            for g in elements:
                act_g = lambda y, g=g: cplx.act_terms(g, y)
                if image(cplx.boundary_terms, image(act_g, {x: 1})) != image(act_g, dx):
                    return False
    return True


def equivariance_check(cplx, max_degree):
    (check,) = [c for c in verify_contracted(cplx, max_degree).checks if c.name == "d equivariant"]
    return check


class SignFlippedAction(SurjectionComplex):
    """S^bf(3) whose action by the non-generator (3 2 1) changes sign in
    positive degrees: not a group action, and d no longer commutes with it
    (on a degree-1 x, d(g.x) = -g.dx).  The boundary is unchanged."""

    flipped = Perm((3, 2, 1))

    def act_terms(self, g, gen):
        terms = super().act_terms(g, gen)
        if g == self.flipped and self.degree_of(gen) > 0:
            terms = [(-c, y) for c, y in terms]
        return terms


class SignFlippedSwap(SignFlippedAction):
    """S^bf(4) whose action by the non-generator (3 4) changes sign in
    positive degrees: the n = 4 counterpart of SignFlippedAction, on an
    adjacent transposition that generators() leaves out."""

    flipped = Perm((1, 2, 4, 3))


class BoundaryOffLast(SurjectionComplex):
    """S^bf(n) whose boundary changes sign on the degree-1 generators that
    start with n.  (1 2) fixes n, so d still commutes with (1 2); the
    n-cycle (1 2 ... n) moves it, so d fails to commute with it alone."""

    def boundary_terms(self, gen):
        terms = super().boundary_terms(gen)
        if self.degree_of(gen) == 1 and gen[0] == self.n:
            terms = [(-c, y) for c, y in terms]
        return terms


class SignFlippedMacLane(MacLaneComplex):
    """N(ESigma_3) whose action by the non-generator (3 2 1) changes sign
    in positive degrees: the fault of SignFlippedAction, on a family whose
    action law is witnessed on the vertices only."""

    flipped = Perm((3, 2, 1))

    def act_terms(self, g, gen):
        terms = super().act_terms(g, gen)
        if g == self.flipped and self.degree_of(gen) > 0:
            terms = [(-c, y) for c, y in terms]
        return terms


def test_generators_generate_every_group():
    from chainops.groups import CyclicGroup

    groups = [SymmetricGroup(n) for n in range(1, 7)]
    groups += [CyclicGroup(n) for n in range(1, 9)]
    groups += [
        ProductGroup((SymmetricGroup(3), CyclicGroup(4))),
        ProductGroup((SymmetricGroup(4), SymmetricGroup(2))),
        ProductGroup((SymmetricGroup(2),) * 3),
    ]
    # (1 2) and the n-cycle: two generators for every n >= 3
    for n in range(1, 7):
        assert len(SymmetricGroup(n).generators()) == min(n - 1, 2)
    for group in groups:
        gens = group.generators()
        assert not any(group.is_identity(s) for s in gens), group
        closure = {group.identity}
        frontier = [group.identity]
        while frontier:
            h = frontier.pop()
            for s in gens:
                sh = group.mul(s, h)
                if sh not in closure:
                    closure.add(sh)
                    frontier.append(sh)
        assert closure == set(group.elements()), group


def test_generator_sweep_agrees_with_brute_force():
    from chainops.suites import complex_by_tag, contraction_tasks

    complexes = [complex_by_tag(tag, n) for tag, n, _ in contraction_tasks(3, 3)]
    complexes += [
        TensorComplex((surjection_complex("bf", 2),) * 3),
        TensorComplex((sym_eg(2),) * 3),
    ]
    for cplx in complexes:
        if cplx.group is None:
            continue
        check = equivariance_check(cplx, 3)
        assert check.ok, cplx
        assert brute_force_equivariant(cplx, 3), cplx
    # arity 4, where the 4-cycle first stands in for two transpositions
    for cplx in [surjection_complex(flavor, 4) for flavor in ("bf", "aj", "ms")] + [sym_eg(4)]:
        check = equivariance_check(cplx, 1)
        assert check.ok, cplx
        assert brute_force_equivariant(cplx, 1), cplx


def test_action_law_failure_fails_equivariance():
    for bad, max_degree in ((SignFlippedAction("bf", 3), 2), (SignFlippedSwap("bf", 4), 1)):
        check = equivariance_check(bad, max_degree)
        assert not check.ok and not brute_force_equivariant(bad, max_degree)
        assert check.counterexample.startswith("action law at s = ")
        # d commutes with (1 2) and the n-cycle: only the law sees the fault
        assert brute_force_equivariant(bad, max_degree, bad.group.generators())


def test_action_law_sees_only_its_witnesses():
    # the stated limit of the generator proof: MacLaneComplex witnesses its
    # law on the vertices, where this action is still the group's, so the
    # sweep passes a complex that the brute-force oracle fails
    bad = SignFlippedMacLane(SymmetricGroup(3))
    check = equivariance_check(bad, 2)
    assert check.ok
    assert not brute_force_equivariant(bad, 2)
    assert brute_force_equivariant(bad, 2, bad.group.generators())


def test_boundary_off_one_generator_fails_equivariance():
    for n, max_degree in ((3, 2), (4, 1)):
        bad = BoundaryOffLast("bf", n)
        check = equivariance_check(bad, max_degree)
        assert not check.ok and not brute_force_equivariant(bad, max_degree)
        assert check.counterexample is not None and check.checked > 0
        swap, cycle = bad.group.generators()
        assert brute_force_equivariant(bad, max_degree, [swap])
        assert not brute_force_equivariant(bad, max_degree, [cycle])


def test_engines_do_not_revalidate_generators_they_built(monkeypatch):
    # inputs are built unvalidated first; the engines' own sweeps to
    # degree 2 then make no validate call at all
    from chainops.action import BFActionStandard
    from chainops.complexes import ChainComplex
    from chainops.elements import built
    from chainops.maclane import JoinHomotopy
    from chainops.operads import surj_engine

    S = surjection_complex("bf", 3)
    engine = surj_engine("bf")
    arities = (2, 2, 1)
    dom = engine.domain(arities)
    tensors = [built(dom, ZZ, gen) for k in range(3) for gen in dom.basis(k)]
    surjections = [built(S, ZZ, gen) for k in range(3) for gen in S.basis(k)]
    E = sym_eg(3)
    tuples = [built(E, ZZ, gen) for k in range(3) for gen in E.basis(k)]
    phi = StandardMap(S, S)
    H = StandardHomotopy(phi, phi, S, S)
    std = BFActionStandard(3)
    J = JoinHomotopy(rho, lambda x: x, E, E, ZZ)

    calls = []
    for family in (SurjectionComplex, ChainComplex):
        validate = family.validate
        monkeypatch.setattr(
            family,
            "validate",
            lambda self, gen, validate=validate: calls.append(gen) or validate(self, gen),
        )
    for x in tensors:
        engine.apply(arities, x)
    for x in surjections:
        phi(x), H(x), std.apply(x, 2)
    for x in tuples:
        J(x)
    assert calls == []


# -- the one-pass sweep against the four-pass oracle ------------------------------


def four_pass_checks(cplx, max_degree, ring=ZZ):
    """(name, ok, counterexample, checked) of every contraction check, in
    report order, from four separate sweeps over the basis that recompute
    the structure maps on every visit.  An independent oracle for
    verify_contracted: it shares no code with it beyond the complex's own
    methods, and reads procedure.PATTERN_THRESHOLD only to visit the same
    generators."""
    from chainops import procedure

    def stream(k):
        reps = getattr(cplx, "pattern_reps", None)
        if reps is not None and cplx.basis_size(k) > procedure.PATTERN_THRESHOLD:
            return reps(k)
        return ((g, 1) for g in cplx.basis(k))

    def image(fn, x):
        # fn on the formal sum x (normal generator -> coefficient); every
        # nondegenerate term stays a key, even when its coefficients cancel
        out = {}
        for g, c in x.items():
            for c2, y in fn(g):
                y = cplx.normalize(y)
                if y is not None:
                    out[y] = out.get(y, 0) + c * c2
        return out

    def is_zero(*xs):
        total = {}
        for x in xs:
            for g, c in x.items():
                total[g] = total.get(g, 0) + c
        return all(ring.normalize(c) == 0 for c in total.values())

    def negative(x):
        return {g: -c for g, c in x.items()}

    def d(x):
        return image(cplx.boundary_terms, x)

    def h(x):
        return image(cplx.contraction_terms, x)

    def sweep(name, holds):
        count = 0
        for k in range(max_degree + 1):
            for gen, weight in stream(k):
                count += weight
                if not holds({gen: 1}):
                    return name, False, cplx.format_gen(gen), count
        return name, True, None, count

    def homotopy(x):
        return is_zero(d(h(x)), h(d(x)), negative(x), image(cplx.rho_terms, x))

    rows = [
        sweep("d.d = 0", lambda x: is_zero(d(d(x)))),
        sweep("dh + hd = Id - rho", homotopy),
        sweep("h.h = 0", lambda x: is_zero(h(h(x)))),
    ]
    base = cplx.normalize(cplx.basepoint_gen())
    rows.append(("h.iota = 0", base is None or is_zero(h({base: 1})), None, 1))
    if cplx.group is None:
        return rows

    law_failure = next((case for case, ok in cplx.action_law() if not ok), None)
    if law_failure is not None:
        return rows + [("d equivariant", False, law_failure, 0)]

    def equivariant(x):
        (gen,) = x
        dx = d(x)
        for s in cplx.group.generators():
            act_s = lambda y, s=s: image(lambda g: cplx.act_terms(s, g), y)
            sx = act_s(x)
            if any(cplx.degree_of(y) != cplx.degree_of(gen) for y in sx):
                return False
            if not is_zero(d(sx), negative(act_s(dx))):
                return False
        return True

    return rows + [sweep("d equivariant", equivariant)]


def one_pass_checks(cplx, max_degree, ring=ZZ):
    report = verify_contracted(cplx, max_degree, ring)
    return [(c.name, c.ok, c.counterexample, c.checked) for c in report.checks]


class FlippedContraction(SurjectionComplex):
    """S^bf(3) with the sign of one contraction term flipped."""

    def contraction_terms(self, gen):
        terms = super().contraction_terms(gen)
        if gen == (2, 1, 3, 1) and terms:
            c, g = terms[0]
            terms = [(-c, g)] + terms[1:]
        return terms


class HSquaredOff(SimplexComplex):
    """Delta^5 with the contraction h + dK - Kd, where K sends x0 = (1,2,3)
    to w = (1,2,3,4,5) and every other generator to 0.  dK - Kd
    anticommutes with d and vanishes on the basepoint, so d.d,
    dh + hd = Id - rho and h.iota still hold; h.h fails first at x0, in
    degree 2, where it is -d h w."""

    x0, w = (1, 2, 3), (1, 2, 3, 4, 5)

    def contraction_terms(self, gen):
        terms = list(super().contraction_terms(gen))
        if gen == self.x0:
            terms += super().boundary_terms(self.w)
        terms += [(-c, self.w) for c, face in super().boundary_terms(gen) if face == self.x0]
        return terms


class ActionOffDegree(MacLaneComplex):
    """N(ESigma_3) whose generators (1 2) and (1 2 3) add the vertex (e) to
    the image of every degree-1 generator: the vertex is a cycle, so
    d(s.x) = s.dx still holds and the law, witnessed on the vertices, still
    holds, but s.x leaves the degree of x."""

    def act_terms(self, g, gen):
        terms = super().act_terms(g, gen)
        if len(gen) == 2 and g in self.group.generators():
            terms = terms + [(1, (self.group.identity,))]
        return terms


def test_one_pass_matches_four_pass_oracle():
    from chainops.suites import complex_by_tag, contraction_tasks

    complexes = [(complex_by_tag(tag, n), 3) for tag, n, _ in contraction_tasks(3, 3)]
    complexes += [
        (TensorComplex((surjection_complex("bf", 2),) * 3), 2),
        (TensorComplex((sym_eg(2),) * 3), 2),
    ]
    for cplx, max_degree in complexes:
        oracle = four_pass_checks(cplx, max_degree)
        assert all(ok for _, ok, _, _ in oracle), cplx
        assert one_pass_checks(cplx, max_degree) == oracle, cplx
    # a prime field: the sums are reduced in the ring
    from chainops.rings import GF

    for cplx in (surjection_complex("ms", 3), sym_eg(3)):
        assert one_pass_checks(cplx, 3, GF(3)) == four_pass_checks(cplx, 3, GF(3))


def test_one_pass_matches_oracle_on_negative_controls():
    controls = [
        (CorruptedBoundary(3), 3),
        (FlippedContraction("bf", 3), 3),
        (BoundaryOffLast("bf", 3), 2),
        (HSquaredOff(5), 4),
        (ActionOffDegree(SymmetricGroup(3)), 2),
        (BoundaryOffLast("bf", 4), 1),
        (SignFlippedSwap("bf", 4), 1),
    ]
    failures = set()
    for cplx, max_degree in controls:
        oracle = four_pass_checks(cplx, max_degree)
        assert one_pass_checks(cplx, max_degree) == oracle, cplx
        failed = [(name, ce, checked) for name, ok, ce, checked in oracle if not ok]
        assert failed, cplx
        failures.update(failed)
    # the controls fail different checks at different generators
    assert len({ce for _, ce, _ in failures}) >= 4
    assert {name for name, _, _ in failures} >= {
        "d.d = 0",
        "dh + hd = Id - rho",
        "h.h = 0",
        "d equivariant",
    }
    # the h.h control fails h.h alone, at x0 in degree 2
    bad = HSquaredOff(5)
    assert [(name, ce) for name, ok, ce, _ in four_pass_checks(bad, 4) if not ok] == [
        ("h.h = 0", "(1,2,3)")
    ]


class TripledFace(SimplexComplex):
    """Delta^m whose edge (1,2) has the boundary (2) - (1) + 3 (0).  d.d
    then leaves exactly 3 (0) on each triangle with the face (1,2), first
    on (0,1,2).  The other identities still hold over the integers, since
    h sends (0) to the degenerate (0,0), and mod 3 the complex is Delta^m."""

    def boundary_terms(self, gen):
        out = super().boundary_terms(gen)
        if gen == (1, 2):
            out.append((3, (0,)))
        return out


def test_one_pass_reduces_each_sum_in_the_ring():
    from chainops.rings import GF

    bad = TripledFace(3)
    over_z = one_pass_checks(bad, 3)
    assert over_z == four_pass_checks(bad, 3)
    assert [(name, ce, checked) for name, ok, ce, checked in over_z if not ok] == [
        ("d.d = 0", "(0,1,2)", 4 + 6 + 1)
    ]
    over_f3 = one_pass_checks(bad, 3, GF(3))
    assert over_f3 == four_pass_checks(bad, 3, GF(3))
    assert all(ok for _, ok, _, _ in over_f3)
    # 3 is a unit mod 2
    assert one_pass_checks(bad, 3, GF(2)) == four_pass_checks(bad, 3, GF(2))
    assert not verify_contracted(bad, 3, GF(2)).checks[0].ok


def counting(family):
    """A subclass of `family` that counts its boundary_terms,
    contraction_terms, act_terms and normalize calls per generator, the
    action law's calls included."""

    class Counting(family):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = {}

        def count(self, key):
            self.calls[key] = self.calls.get(key, 0) + 1

        def boundary_terms(self, gen):
            self.count(("d", gen))
            return super().boundary_terms(gen)

        def contraction_terms(self, gen):
            self.count(("h", gen))
            return super().contraction_terms(gen)

        def act_terms(self, g, gen):
            self.count(("act", g, gen))
            return super().act_terms(g, gen)

        def normalize(self, gen):
            self.count(("normalize", gen))
            return super().normalize(gen)

    return Counting


def test_each_structure_map_runs_once_per_generator():
    for cplx in (
        counting(SurjectionComplex)("ms", 3),
        counting(MacLaneComplex)(SymmetricGroup(3)),
    ):
        assert verify_contracted(cplx, 3).ok
        # within one call, the action law included, no structure map runs
        # twice on a generator, no act(g) twice on a (g, generator) pair,
        # and no raw generator is normalised twice
        assert {key[0] for key in cplx.calls} == {"d", "h", "act", "normalize"}
        repeated = [key for key, n in cplx.calls.items() if n > 1]
        assert repeated == [], (cplx, repeated[:3])
        # the law ran through the counted maps: act(g) on the basepoint, a
        # witness of both families, for every g, the identity included
        base = cplx.basepoint_gen()
        assert all(("act", g, base) in cplx.calls for g in cplx.group.elements())


def test_action_law_case_counts():
    # one case act(e) = Id and |S|.|G| cases act(s.h) = act(s) act(h) per
    # witness: the products s.h, computed once per law, drop no case
    from chainops.maclane import cyc_eg
    from chainops.minimal import minimal_complex

    counts = [
        (surjection_complex("ms", 4), 784),  # 16 witnesses, |S| = 2, |G| = 24
        (sym_eg(4), 1176),  # 24 vertices
        (surjection_complex("bf", 3), 104),  # 8 witnesses, |G| = 6
        (cyc_eg(5), 30),  # 5 vertices, |S| = 1, |G| = 5
        (minimal_complex(7), 56),  # 7 degree-0 generators
    ]
    for cplx, count in counts:
        law = first_fail(lambda n: f"action law ({n} cases)", cplx.action_law())
        assert law.ok and law.name == f"action law ({count} cases)", cplx


def test_sweeps_reject_a_negative_degree_and_no_workers():
    from chainops.suites import contracted_suite

    with pytest.raises(InvalidInput, match="max_degree"):
        verify_contracted(simplex_complex(2), -1)
    with pytest.raises(InvalidInput, match="max_degree"):
        contracted_suite(2, -1)
    with pytest.raises(InvalidInput, match="jobs"):
        contracted_suite(2, 1, jobs=0)


# The closed formulas the recursive oracles are checked against.
FORMULAS = {
    "bf_action_terms",
    "multidiagonal_terms",
    "ez_columns",
    "ez_terms",
    "surj_compose_terms",
    "be_compose_terms",
    "table_reduction_terms",
}


def _names(source):
    """Every name the code reads, imports, looks up as an attribute or
    spells out as a string (as getattr would take it)."""
    out = set()
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_oracles_share_no_code_with_the_formulas():
    from chainops import procedure
    from chainops import action
    from chainops.action import BFActionStandard, FaceTable

    oracles = {
        "procedure.py": inspect.getsource(procedure),
        "BFActionStandard": inspect.getsource(BFActionStandard),
        "FaceTable.subface": inspect.getsource(FaceTable.subface),
    }
    for name, source in oracles.items():
        assert not _names(source) & FORMULAS, name
    # the oracle walk of dual_operation_oracle reads the face lists itself
    assert not _names(oracles["FaceTable.subface"]) & {"walk", "walk_map", "face"}
    # one deletion walk: a space gives faces, and Space derives the walk
    walks = [name for name, cls in vars(action).items() if isinstance(cls, type) and "walk" in vars(cls)]
    assert walks == ["Space"]
    # the check sees a formula where it is named
    assert _names("from .simplex import ez_terms as t\nt(x)") & FORMULAS
    assert _names("self._simplex.ez_columns(rows)") & FORMULAS


def test_vertex_sequence_complexes_share_the_cone_and_one_aw():
    from chainops import maclane, simplex
    from chainops.complexes import VertexSequenceComplex

    # every complex of vertex sequences takes the cone contraction and its
    # basepoint from the base class, and a product of simplices its normal
    # form, degree and faces too
    subclasses, todo = set(), [VertexSequenceComplex]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            # the library's families, not the broken ones these tests build
            if cls.__module__.startswith("chainops."):
                subclasses.add(cls)
    assert {SimplexComplex, MacLaneComplex, simplex.ProductSimplexComplex} <= subclasses
    for cls in subclasses:
        assert not {"contraction_terms", "basepoint_gen"} & set(vars(cls)), cls
    assert not {"normalize", "degree_of", "boundary_terms"} & set(vars(simplex.ProductSimplexComplex))
    # one closed AW serves both two-factor products
    assert not hasattr(maclane, "aw_maclane")
