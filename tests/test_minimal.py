"""The minimal cyclic resolution: boundaries, contraction, phi, pi,
lambda, diagonals."""

import pytest

from chainops.complexes import act, boundary, contract
from chainops.maclane import InducedMap, cyc_eg, cyclic_into_symmetric, sym_eg
from chainops.minimal import (
    canonical_class,
    delta_M,
    lambda_power,
    minimal_complex,
    minimal_tensor,
    multidiagonal_M,
    phi_to_EC,
    pi_from_EC,
)
from chainops.morphisms import table_reduction
from chainops.procedure import StandardMap, verify_contracted
from chainops.rings import GF, ZZ
from chainops.surjections import surjection_complex

M3 = minimal_complex(3)
M5 = minimal_complex(5)


def test_m_boundary_golden():
    d1 = boundary(M3.el(ZZ, (0, 1)))
    assert dict(d1.terms) == {(1, 0): 1, (0, 0): -1}
    d2 = boundary(M3.el(ZZ, (0, 2)))
    assert dict(d2.terms) == {(0, 1): 1, (1, 1): 1, (2, 1): 1}
    assert boundary(boundary(minimal_complex(5).el(ZZ, (0, 3)))).is_zero()


def test_m_contraction_golden():
    assert contract(M3.el(ZZ, (0, 2))).is_zero()
    assert contract(M3.el(ZZ, (1, 2))) == M3.el(ZZ, (0, 3))
    assert contract(M3.el(ZZ, (2, 1))) == M3.el(ZZ, (0, 2))
    assert contract(M3.el(ZZ, (1, 1))).is_zero()


def test_m_generators_are_integer_pairs():
    # validate asks for a pair of integers only; normalize reduces i mod n
    # and reads k < 0 as degenerate (malformed pairs: test_kernel.py)
    assert M3.el(ZZ, [4, 1]) == M3.el(ZZ, (1, 1))
    assert M3.el(ZZ, (0, -1)).is_zero()


def test_m_contraction_identities():
    assert verify_contracted(M3, 6).ok
    assert verify_contracted(M5, 4).ok


def test_phi_golden():
    assert phi_to_EC(M3.el(ZZ, (0, 0))) == cyc_eg(3).el(ZZ, (0,))
    assert phi_to_EC(M3.el(ZZ, (0, 1))) == cyc_eg(3).el(ZZ, (0, 1))
    std = StandardMap(M3, cyc_eg(3))
    for k in range(0, 7):
        for i in range(3):
            x = M3.el(ZZ, (i, k))
            assert phi_to_EC(x) == std(x)


def test_phi_chain_map():
    for n, M in ((3, M3), (5, M5)):
        for k in range(0, 6):
            for i in range(n):
                x = M.el(ZZ, (i, k))
                assert phi_to_EC(boundary(x)) == boundary(phi_to_EC(x))


def test_pi_golden_terms():
    EC = cyc_eg(3)
    # pi(0, n-1, 0, ..., n-1, 0) = y_2k ; pi(0,1,0,1,...,0,1) = y_{2k-1}
    assert pi_from_EC(EC.el(ZZ, (0, 2, 0, 2, 0))) == M3.el(ZZ, (0, 4))
    assert pi_from_EC(EC.el(ZZ, (0, 1, 0, 1))) == M3.el(ZZ, (0, 3))
    # wrong cyclic pattern dies
    assert pi_from_EC(EC.el(ZZ, (0, 1, 2))).is_zero()


def test_pi_retraction_and_standard():
    EC = cyc_eg(3)
    std = StandardMap(EC, M3)
    for k in range(0, 5):
        for gen in EC.basis(k):
            x = EC.el(ZZ, gen)
            assert pi_from_EC(x) == std(x)
    for n in (3, 5):
        M = minimal_complex(n)
        for k in range(0, 7):
            assert pi_from_EC(phi_to_EC(M.el(ZZ, (0, k)))) == M.el(ZZ, (0, k))


def test_pi_commutes_with_contractions():
    EC = cyc_eg(3)
    for k in range(0, 6):
        for gen in EC.basis(k):
            x = EC.el(ZZ, gen)
            assert pi_from_EC(contract(x)) == contract(pi_from_EC(x))


def test_lambda_golden():
    assert lambda_power(2, M5.el(ZZ, (0, 0))) == M5.el(ZZ, (0, 0))
    assert lambda_power(2, M5.el(ZZ, (0, 2))) == 2 * M5.el(ZZ, (0, 2))
    lam1 = lambda_power(2, M5.el(ZZ, (0, 1)))
    assert dict(lam1.terms) == {(0, 1): 1, (1, 1): 1}


def test_lambda_twisted_chain_map():
    for ell in (2, 3):
        for k in range(0, 5):
            for i in range(5):
                x = M5.el(ZZ, (i, k))
                assert lambda_power(ell, boundary(x)) == boundary(
                    lambda_power(ell, x)
                )
    std = StandardMap(M5, M5, group_hom=lambda a: (a * 2) % 5)
    for k in range(0, 5):
        for i in range(5):
            x = M5.el(ZZ, (i, k))
            assert lambda_power(2, x) == std(x)


def test_delta_golden():
    T = minimal_tensor(3, 2)
    assert delta_M(M3.el(ZZ, (0, 0))) == T.el(ZZ, ((0, 0), (0, 0)))
    d1 = delta_M(M3.el(ZZ, (0, 1)))
    assert dict(d1.terms) == {((0, 0), (0, 1)): 1, ((0, 1), (1, 0)): 1}


def test_delta_standard_and_chain_map():
    T = minimal_tensor(3, 2)
    std = StandardMap(M3, T, group_hom=lambda a: (a, a))
    for k in range(0, 6):
        for i in range(3):
            x = M3.el(ZZ, (i, k))
            assert delta_M(x) == std(x)
            assert delta_M(boundary(x)) == boundary(delta_M(x))


def test_delta_coinvariant_projection_mod_p():
    p = 5
    Fp = GF(p)
    M = minimal_complex(p)
    for k in (1, 2):
        val = delta_M(M.el(Fp, (0, 2 * k)))
        proj = {}
        for (a, b), c in val.terms.items():
            key = (a[1], b[1])
            proj[key] = Fp.normalize(proj.get(key, 0) + c)
        proj = {g: c for g, c in proj.items() if c}
        assert proj == {(2 * i, 2 * k - 2 * i): 1 for i in range(k + 1)}


def test_triple_diagonal_agreement_and_failure():
    T3 = minimal_tensor(3, 3)
    std = StandardMap(M3, T3, group_hom=lambda a: (a, a, a))
    for k in range(0, 5):
        x = M3.el(ZZ, (0, k))
        assert multidiagonal_M(3, x) == std(x)
    # the other bracketing disagrees at y_2
    y2 = M3.el(ZZ, (0, 2))
    other = delta_M(y2).map_terms(
        lambda gen: [
            (c, g + (gen[1],)) for g, c in delta_M(M3.el(ZZ, gen[0])).terms.items()
        ],
        codomain=T3,
    )
    assert other != multidiagonal_M(3, y2)
    # paper: twelve terms, exactly one outside Ker(h^(3))
    assert len(other.terms) == 12
    residue = contract(other)
    assert not residue.is_zero()
    bad = [
        gen
        for gen, c in other.terms.items()
        if not contract(T3.el(ZZ, gen)).is_zero()
    ]
    assert bad == [((1, 0), (1, 1), (2, 1))]  # T y_0 (x) T y_1 (x) T^2 y_1


def test_composite_into_bf_is_the_standard_map():
    """The composite W(p) -> S^bf(p) that action_for applies, table
    reduction after the inclusion C_p -> Sigma_p after phi, is the standard
    map along that inclusion, term for term: p = 2 and 3 to degree 6, p = 5
    to degree 4."""
    for p, top in ((2, 6), (3, 6), (5, 4)):
        W = minimal_complex(p)
        incl = InducedMap(cyclic_into_symmetric(p), cyc_eg(p), sym_eg(p), ZZ)
        std = StandardMap(W, surjection_complex("bf", p), group_hom=cyclic_into_symmetric(p))
        for k in range(top + 1):
            for b in W.basis(k):
                x = W.el(ZZ, b)
                composite = table_reduction("bf", incl(phi_to_EC(x)))
                assert composite.terms == std(x).terms, (p, b)
                assert composite.terms


def test_canonical_class_cycles_mod_p():
    p = 3
    Fp = GF(p)
    from chainops.maclane import coinvariants

    for k in range(1, 5):
        xk = canonical_class(p, k, Fp)
        assert boundary(coinvariants(xk)).is_zero()


def test_contraction_identities_depth_eight():
    for n in (3, 5, 7):
        assert verify_contracted(minimal_complex(n), 8).ok, n


def test_multidiagonal_m_does_not_revalidate_its_own_generators(monkeypatch):
    from chainops.minimal import MinimalComplex

    y = M3.el(ZZ, (0, 3))
    calls = []
    real = MinimalComplex.validate

    def counted(self, gen):
        calls.append(gen)
        return real(self, gen)

    monkeypatch.setattr(MinimalComplex, "validate", counted)
    assert len(multidiagonal_M(3, y).terms) > 0
    assert calls == []
