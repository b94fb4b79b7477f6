"""The three surjection complexes: canonical forms, boundaries, actions,
contractions, sign functions, isomorphisms, clean generators."""

import random

import pytest

from chainops.complexes import act, augment, boundary, contract, rho
from chainops.errors import InvalidInput
from chainops.groups import SymmetricGroup
from chainops.perms import Perm, all_perms
from chainops.procedure import verify_contracted
from chainops.rings import ZZ
from chainops.surjections import (
    aj_signs,
    bf_signs,
    caesuras,
    caesura_word,
    is_basis_gen,
    is_clean_gen,
    iso,
    ms_signs,
    mu_sign,
    prism_perm,
    sign_c,
    sign_delta,
    sign_p,
    surjection_complex,
    tau_f,
)

GOLDEN12 = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)


def test_canonicalization():
    S = surjection_complex("bf", 3)
    assert S.canonical((1, 1, 2, 3)) is None  # degenerate
    assert S.canonical((1, 2, 1)) is None  # not surjective onto 1..3
    assert S.canonical((1, 2, 3, 1)) == (1, 2, 3, 1)
    with pytest.raises(InvalidInput):
        S.canonical((0, 1, 2))


def test_caesuras_golden():
    assert caesuras((1, 2, 3)) == []
    assert caesuras((1, 2, 1)) == [1]
    assert caesuras(GOLDEN12) == [1, 2, 3, 4, 5, 6, 8]
    assert caesura_word(GOLDEN12) == (2, 1, 2, 3, 4, 2, 1)


def test_bf_sign_table_golden():
    assert bf_signs(GOLDEN12) == [1, -1, 1, -1, 1, -1, 1, 1, 0, -1, -1, 1]


def test_ms_sign_table_golden():
    y = (2, 1, 2, 4, 2, 3, 1, 4, 1, 2)
    assert ms_signs(y) == [1, 1, -1, -1, 1, -1, -1, 1, 1, -1]
    d = boundary(surjection_complex("ms", 4).el(ZZ, y))
    assert len(d.terms) == 6


def test_aj_boundary_is_simplicial():
    S = surjection_complex("aj", 3)
    x = (1, 2, 3, 1)
    d = boundary(S.el(ZZ, x))
    assert d.coeff((2, 3, 1)) == 1
    assert d.coeff((1, 2, 3)) == -1  # position 4 sign (-1)^3


def test_dd_zero_all_flavors():
    for flavor in ("aj", "bf", "ms"):
        for n in (2, 3):
            S = surjection_complex(flavor, n)
            for k in range(0, 5):
                for gen in S.basis(k):
                    assert boundary(boundary(S.el(ZZ, gen))).is_zero(), (flavor, gen)


def test_ms_action_signs_golden():
    x = (2, 4, 1, 3, 4, 2, 5, 1, 5, 2)
    assert mu_sign(Perm((3, 5, 2, 1, 4)), x) == -1
    assert mu_sign(Perm((5, 3, 1, 2, 4)), x) == 1


def test_action_identity_all_flavors():
    for flavor in ("aj", "bf", "ms"):
        S = surjection_complex(flavor, 3)
        e = Perm.identity(3)
        for gen in S.basis(2):
            x = S.el(ZZ, gen)
            assert act(e, x) == x


def test_action_is_group_action():
    rng = random.Random(9)
    for flavor in ("aj", "bf", "ms"):
        S = surjection_complex(flavor, 3)
        gens = list(S.basis(2))
        for g in all_perms(3):
            for h in all_perms(3):
                for gen in rng.sample(gens, 5):
                    x = S.el(ZZ, gen)
                    assert act(g, act(h, x)) == act(g * h, x)


def test_act_refuses_a_permutation_of_another_size():
    # act checks the arity where the permutation comes in, for every
    # flavor and in each factor of a tensor product
    for flavor in ("aj", "bf", "ms"):
        x = surjection_complex(flavor, 3).el(ZZ, (1, 2, 1, 3))
        for g in (Perm((2, 1)), Perm((2, 1, 3, 4))):
            with pytest.raises(InvalidInput, match=r"^arity mismatch in surjection action$"):
                act(g, x)
    from chainops.complexes import TensorComplex
    from chainops.elements import built

    T = TensorComplex((surjection_complex("bf", 2), surjection_complex("bf", 3)))
    y = built(T, ZZ, ((1, 2), (1, 2, 1, 3)))
    assert act((Perm((2, 1)), Perm((2, 1, 3))), y) == built(T, ZZ, ((2, 1), (2, 1, 2, 3)))
    with pytest.raises(InvalidInput, match=r"^arity mismatch in surjection action$"):
        act((Perm((2, 1)), Perm((2, 1))), y)


def test_aj_action_and_augmentation_twisted():
    S = surjection_complex("aj", 3)
    g = Perm((2, 1, 3))
    x = S.el(ZZ, (1, 2, 3))
    assert act(g, x) == S.el(ZZ, (2, 1, 3), -1)
    assert augment(S.el(ZZ, (2, 1, 3))) == -1
    assert rho(S.el(ZZ, (2, 1, 3))) == S.el(ZZ, (1, 2, 3), -1)


def test_contraction_H4_text_case():
    S = surjection_complex("bf", 4)
    h = contract(S.el(ZZ, (1, 4, 3, 2, 4)))
    assert dict(h.terms) == {(1, 2, 4, 3, 2, 4): 1, (1, 2, 3, 4, 3, 4): 1}


def test_contraction_kills_basepoint_and_clean():
    for flavor in ("aj", "bf", "ms"):
        S = surjection_complex(flavor, 4)
        assert contract(S.el(ZZ, (1, 2, 3, 4))).is_zero()
        assert contract(S.el(ZZ, (1, 2, 1, 3, 4))).is_zero()


def test_contracted_identities_small():
    for flavor in ("aj", "bf", "ms"):
        S = surjection_complex(flavor, 3)
        assert verify_contracted(S, 3).ok, flavor


def test_basis_and_clean_goldens():
    assert is_basis_gen((1, 2, 1, 3))
    assert is_clean_gen((1, 2, 1, 3))
    # the H_4(14324) output summand: clean (it lies in Im h, so h kills it)
    # but not a basis generator (first occurrences 1,2,4,3 out of order)
    assert is_clean_gen((1, 2, 4, 3, 2, 4))
    assert not is_basis_gen((1, 2, 4, 3, 2, 4))
    S = surjection_complex("bf", 4)
    assert contract(S.el(ZZ, (1, 2, 4, 3, 2, 4))).is_zero()
    assert is_clean_gen((1, 2, 3))
    assert not is_clean_gen((2, 1, 3))


def test_clean_span_is_image_of_contraction():
    # Im(h) = F-span of clean generators, both inclusions, n <= 3, k <= 3
    for flavor in ("aj", "bf", "ms"):
        for n in (2, 3):
            S = surjection_complex(flavor, n)
            for k in range(0, 4):
                for gen in S.basis(k):
                    hx = contract(S.el(ZZ, gen))
                    assert all(is_clean_gen(g) for g in hx.terms), (flavor, gen)
                for gen in S.basis(k):
                    if k >= 1 and is_clean_gen(gen):
                        x = S.el(ZZ, gen)
                        assert contract(boundary(x)) == x, (flavor, gen)


def test_sign_functions_golden():
    assert sign_c(GOLDEN12) == 1
    assert sign_delta(GOLDEN12) == -1
    assert tau_f(GOLDEN12) == -1
    assert sign_p(GOLDEN12) == 1
    assert prism_perm(GOLDEN12) == (2, 8, 1, 3, 6, 4, 5, 11, 12, 7, 10, 9)


def test_sign_p_factorization_sweep():
    for n in (2, 3, 4):
        S = surjection_complex("bf", n)
        for k in range(0, 4):
            for x in S.basis(k):
                assert sign_p(x) == sign_c(x) * sign_delta(x) * tau_f(x)


def test_degree_zero_signs():
    for g in all_perms(3):
        assert sign_c(g) == 1
        assert sign_p(g) == g.parity()


def test_iso_suite_small():
    for src_fl, dst_fl in (("bf", "ms"), ("aj", "ms"), ("aj", "bf")):
        for n in (2, 3):
            A = surjection_complex(src_fl, n)
            for k in range(0, 3):
                for gen in A.basis(k):
                    x = A.el(ZZ, gen)
                    fwd = iso(src_fl, dst_fl, x)
                    assert iso(src_fl, dst_fl, boundary(x)) == boundary(fwd)
                    assert iso(src_fl, dst_fl, contract(x)) == contract(fwd)
                    assert iso(dst_fl, src_fl, fwd) == x
                    for g in all_perms(n):
                        assert iso(src_fl, dst_fl, act(g, x)) == act(g, fwd)


def test_iso_triple_roundtrip():
    for n in (2, 3):
        A = surjection_complex("aj", n)
        for k in range(0, 4):
            for gen in A.basis(k):
                x = A.el(ZZ, gen)
                assert iso("ms", "aj", iso("bf", "ms", iso("aj", "bf", x))) == x


def test_commutation_relations_with_contraction_operators():
    # the flavor isomorphisms commute termwise with the i, s, r operators;
    # we check the composite h-commutation at generator level plus the
    # aj variant with its degree signs via full h-commutation
    for n in (3, 4):
        rng = random.Random(n)
        S = surjection_complex("aj", n)
        gens = [g for k in range(0, 3) for g in S.basis(k)]
        for gen in rng.sample(gens, min(40, len(gens))):
            x = S.el(ZZ, gen)
            assert iso("aj", "ms", contract(x)) == contract(iso("aj", "ms", x))
