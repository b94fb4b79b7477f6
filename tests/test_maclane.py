"""MacLane models: boundaries, contractions, AW/EZ, joins, induced maps,
and coinvariants."""

import random

import pytest

from chainops.complexes import (
    TensorComplex,
    act,
    augment,
    boundary,
    contract,
    rho,
    tensor_elements,
)
from chainops.errors import InvalidInput
from chainops.groups import CyclicGroup, ProductGroup, SymmetricGroup
from chainops.maclane import (
    InducedMap,
    JoinHomotopy,
    coinvariants,
    coinvariant_complex,
    cyc_eg,
    cyclic_into_symmetric,
    ez_maclane,
    join,
    maclane_complex,
    power_map,
    sym_eg,
)
from chainops.perms import Perm, all_perms
from chainops.procedure import verify_contracted
from chainops.rings import GF, ZZ
from chainops.simplex import aw, multidiagonal

E3 = sym_eg(3)
S3 = SymmetricGroup(3)
e3 = Perm.identity(3)


def g3(*images):
    return Perm(images)


def test_eg_entries_are_decoded_by_the_group():
    # a C_n entry is an exponent reduced mod n, so (0, 3) in N(EC_3) is the
    # degenerate (0, 0), as the CLI reads "(0; 3)"
    C3 = cyc_eg(3)
    assert C3.el(ZZ, (0, 3)).is_zero()
    assert C3.el(ZZ, (0, 4)) == C3.el(ZZ, (0, 1))
    E_HG = maclane_complex(ProductGroup((CyclicGroup(2), SymmetricGroup(2))))
    assert E_HG.el(ZZ, ((0, (1, 2)), (1, (2, 1)))).terms == {((0, (1, 2)), (1, (2, 1))): 1}
    bad = [
        (E3, ((1, 2), (2, 1, 3)), "(1, 2) is not a permutation of 1..3"),
        (E3, ((1, 2, 3), (2, 1, 3, 4)), "(2, 1, 3, 4) is not a permutation of 1..3"),
        (E3, (1, 2), "1 is not a permutation of 1..3"),
        (C3, (0, 1.5), "1.5 is not an exponent of T"),
        (C3, (0, "1"), "'1' is not an exponent of T"),
        (C3, (0, True), "True is not an exponent of T"),
        (E_HG, ((0, (1, 2)), (1,)), "(1,) is not an element of C_2 x Sigma_2"),
        (E_HG, ((0, (1, 2), 1),), "(0, (1, 2), 1) is not an element of C_2 x Sigma_2"),
        (E_HG, ((0, (1, 2)), (1, (2, 1, 3))), "(2, 1, 3) is not a permutation of 1..2"),
    ]
    for cplx, gen, message in bad:
        for build in (lambda: cplx.el(ZZ, gen), lambda: cplx.canonical(gen)):
            with pytest.raises(InvalidInput) as err:
                build()
            assert str(err.value) == message


def test_eg_boundary_golden():
    g = g3(2, 1, 3)
    x = E3.el(ZZ, (e3, g))
    d = boundary(x)
    assert dict(d.terms) == {(g,): 1, (e3,): -1}


def test_eg_boundary_degenerate_dropped():
    g = g3(2, 1, 3)
    d = boundary(E3.el(ZZ, (e3, g, e3)))
    # (g, e) - (e, e) -> 0 + (e, g)
    assert dict(d.terms) == {(g, e3): 1, (e3, g): 1}


def test_eg_contraction_golden():
    g = g3(2, 3, 1)
    assert contract(E3.el(ZZ, (g,))) == E3.el(ZZ, (e3, g))
    assert contract(E3.el(ZZ, (e3, g))).is_zero()


def test_eg_contraction_identities_small():
    assert verify_contracted(E3, 2).ok
    assert verify_contracted(cyc_eg(5), 3).ok


def test_aw_maclane_golden():
    H = SymmetricGroup(2)
    EP = maclane_complex(ProductGroup((H, H)))
    e, s = Perm.identity(2), Perm((2, 1))
    x0 = EP.el(ZZ, ((e, s),))
    val = aw(x0)
    assert len(val.terms) == 1
    # a degree-2 pair with all 3 front/back terms nondegenerate
    x2 = EP.el(ZZ, ((e, e), (s, s), (e, e)))
    assert len(aw(x2).terms) == 3


def test_ez_maclane_golden():
    H = SymmetricGroup(2)
    EH = maclane_complex(H)
    T = TensorComplex((EH, EH))
    e, s = Perm.identity(2), Perm((2, 1))
    x = tensor_elements(T, EH.el(ZZ, (e, s)), EH.el(ZZ, (e, s)))
    val = ez_maclane(x)
    assert dict(val.terms) == {
        ((e, e), (s, e), (s, s)): 1,
        ((e, e), (e, s), (s, s)): -1,
    }


def test_aw_ez_maclane_identity_and_equivariance():
    H = SymmetricGroup(2)
    EH = maclane_complex(H)
    T = TensorComplex((EH, EH))
    prod_group = ProductGroup((H, H))
    for k in range(0, 4):
        for gen in T.basis(k):
            x = T.el(ZZ, gen)
            assert aw(ez_maclane(x)) == x
    rng = random.Random(1)
    gens = list(T.basis(2))
    for gen in rng.sample(gens, 8):
        x = T.el(ZZ, gen)
        for gh in prod_group.elements():
            assert ez_maclane(act(gh, x)) == act(gh, ez_maclane(x))


def test_join_golden_and_boundary_law():
    g, h = g3(2, 1, 3), g3(3, 1, 2)
    x = E3.el(ZZ, (g,))
    y = E3.el(ZZ, (h,))
    assert join(x, y) == E3.el(ZZ, (g, h))
    assert join(x, x).is_zero()
    rng = random.Random(2)
    elts = list(S3.elements())
    for _ in range(10):
        a = E3.el(ZZ, tuple(rng.sample(elts, 2)))
        b = E3.el(ZZ, tuple(rng.sample(elts, 2)))
        lhs = boundary(join(a, b))
        rhs = (
            join(boundary(a), b)
            - (-1) ** a.degree * join(a, boundary(b))
            + augment(a) * b
        )
        # degree-1 a, b: the epsilon terms vanish except via augment in deg 0
        rhs = join(boundary(a), b) - (-1) ** a.degree * join(a, boundary(b))
        assert lhs == rhs


def test_join_boundary_law_with_augmentation_terms():
    g, h = g3(2, 1, 3), g3(3, 1, 2)
    x = E3.el(ZZ, (g,))
    y = E3.el(ZZ, (h, g))
    lhs = boundary(join(x, y))
    rhs = (
        join(boundary(x), y)
        - (-1) ** x.degree * join(x, boundary(y))
        + augment(x) * y
    )
    assert lhs == rhs


def test_join_homotopy_rho_id_is_contraction():
    J = JoinHomotopy(lambda x: rho(x), lambda x: x, E3, E3, ZZ)
    for k in range(0, 3):
        for gen in E3.basis(k):
            assert J(E3.el(ZZ, gen)) == contract(E3.el(ZZ, gen))


def test_join_homotopy_Kg():
    g = g3(2, 1, 3)
    rmul = lambda x: x.map_terms(lambda gen: [(1, tuple(h * g for h in gen))])
    K = JoinHomotopy(lambda x: x, rmul, E3, E3, ZZ)
    for k in range(0, 3):
        for gen in E3.basis(k):
            x = E3.el(ZZ, gen)
            assert boundary(K(x)) + K(boundary(x)) == rmul(x) - x
            for h in S3.elements():
                assert K(act(h, x)) == act(h, K(x))


def test_join_homotopy_equal_maps():
    J = JoinHomotopy(lambda x: x, lambda x: x, E3, E3, ZZ)
    for gen in E3.basis(1):
        x = E3.el(ZZ, gen)
        assert (boundary(J(x)) + J(boundary(x))).is_zero()


def test_join_homotopy_augmentation_precondition():
    double = lambda x: 2 * x
    J = JoinHomotopy(double, lambda x: x, E3, E3, ZZ)
    with pytest.raises(InvalidInput):
        J(E3.el(ZZ, (e3,)))


def test_induced_map_inclusion_commutes_with_contraction():
    p = 3
    EC, ES = cyc_eg(p), sym_eg(p)
    incl = InducedMap(cyclic_into_symmetric(p), EC, ES, ZZ)
    for k in range(0, 4):
        for gen in EC.basis(k):
            x = EC.el(ZZ, gen)
            assert incl(contract(x)) == contract(incl(x))
            assert incl(boundary(x)) == boundary(incl(x))


def test_induced_map_power_is_chain_map():
    EC = cyc_eg(5)
    pw = InducedMap(power_map(2, 5), EC, EC, ZZ)
    for k in range(1, 4):
        for gen in EC.basis(k):
            x = EC.el(ZZ, gen)
            assert pw(boundary(x)) == boundary(pw(x))


def test_induced_map_requires_pointed_function():
    EC = cyc_eg(5)
    with pytest.raises(InvalidInput):
        InducedMap(lambda i: (i + 1) % 5, EC, EC, ZZ)


def test_induced_constant_map_is_rho_in_positive_degrees():
    EC = cyc_eg(5)
    const = InducedMap(lambda i: 0, EC, EC, ZZ)
    for gen in EC.basis(2):
        assert const(EC.el(ZZ, gen)).is_zero()
    for gen in EC.basis(0):
        assert const(EC.el(ZZ, gen)) == rho(EC.el(ZZ, gen))


def test_coinvariants_golden():
    g, h = g3(2, 1, 3), g3(3, 2, 1)
    gh = g * h
    x = E3.el(ZZ, (g, gh))
    cls = coinvariants(x)
    assert dict(cls.terms) == {(e3, h): 1}
    tw = coinvariants(x, twist=True)
    assert dict(tw.terms) == {(e3, h): g.parity()}


def test_coinvariants_boundary_descends():
    rng = random.Random(4)
    elts = list(S3.elements())
    for twist in (False, True):
        for _ in range(12):
            gen = tuple(rng.sample(elts, 3))
            x = E3.el(ZZ, gen)
            assert boundary(coinvariants(x, twist=twist)) == coinvariants(
                boundary(x), twist=twist
            )


def test_coinvariants_twist_needs_symmetric_group():
    EC = cyc_eg(3)
    with pytest.raises(InvalidInput):
        coinvariant_complex(CyclicGroup(3), twist=True)


def test_eg_diagonal_is_chain_map_and_counts():
    for k in range(1, 3):
        for gen in E3.basis(k):
            x = E3.el(ZZ, gen)
            assert multidiagonal(2, boundary(x)) == boundary(multidiagonal(2, x))
    x = E3.el(ZZ, (e3, g3(2, 1, 3), g3(3, 1, 2)))
    assert len(multidiagonal(2, x).terms) == 3


def test_contraction_identities_depth_five():
    # the module-level bound: symmetric models to n = 4 and cyclic models
    # to n = 7 hold through degree 5 (large sweeps use relabeling classes)
    assert verify_contracted(sym_eg(4), 5).ok
    assert verify_contracted(cyc_eg(7), 5).ok


def test_pattern_class_sizes_sigma4():
    E4 = sym_eg(4)
    for k in range(0, 6):
        total = sum(w for _, w in E4.pattern_reps(k))
        assert total == E4.basis_size(k) == 24 * 23**k


def test_coinvariant_complex_dd_zero():
    from chainops.complexes import boundary as d

    for twist in (False, True):
        B = coinvariant_complex(SymmetricGroup(3), twist)
        for k in range(0, 4):
            for gen in B.basis(k):
                assert d(d(B.el(ZZ, gen))).is_zero(), (twist, gen)


def test_eg_diagonal_equals_standard_procedure():
    from chainops.complexes import TensorComplex
    from chainops.procedure import StandardMap

    E = sym_eg(3)
    T = TensorComplex((E, E))
    std = StandardMap(E, T, group_hom=lambda a: (a, a))
    for k in range(0, 3):
        for gen in E.basis(k):
            x = E.el(ZZ, gen)
            assert multidiagonal(2, x) == std(x)
