"""Power-map boundary witnesses and the diagonal join homotopy."""

from chainops.complexes import act, boundary
from chainops.maclane import coinvariants
from chainops.rings import GF, ZZ
from chainops.witnesses import (
    PowerWitness,
    diagonal_homotopy_report,
    multiply_perm,
    power_witness_report,
)


def test_multiply_perm_conjugates_cycle():
    # g t g^-1 = t^ell with t = (2,3,...,p,1)
    from chainops.maclane import cyclic_into_symmetric

    p, ell = 5, 2
    g = multiply_perm(ell, p)
    t = cyclic_into_symmetric(p)(1)
    assert g * t == cyclic_into_symmetric(p)(ell) * g
    assert g.parity() == -1  # the (p-1)-cycle is odd


def test_full_witness_report_p3():
    report = power_witness_report(3, 2, max_k=2, max_degree=4)
    assert report.ok, repr(report)


def test_witness_J_identity_elementwise():
    wit = PowerWitness(3, 2)
    x4 = wit.x(4)
    lhs = wit.homotopy_defect_J(x4)
    assert lhs == 4 * x4 - wit.iota_ell(x4)


def test_twisted_coefficient_vanishes_mod_p():
    # ell^k + 1 = 3 = 0 mod 3 at k=1: the twisted witness says d(L xbar_2) = 0
    fp = GF(3)
    wit = PowerWitness(3, 2, fp)
    x2 = wit.x(2)
    assert boundary(coinvariants(wit.L(x2), twist=True)).is_zero()


def test_k0_trivial():
    wit = PowerWitness(3, 2)
    x0 = wit.x(0)
    assert wit.homotopy_defect_J(x0) == wit.phi_lambda_pi(x0) - wit.iota_ell(x0)


def test_diagonal_homotopy(monkeypatch):
    import chainops.witnesses

    [passing] = diagonal_homotopy_report(3, 3).checks
    assert passing.ok
    # a zero homotopy fails at the first generator where the maps differ,
    # under the passing check's name
    monkeypatch.setattr(
        chainops.witnesses,
        "JoinHomotopy",
        lambda phi0, phi1, domain, codomain, ring: lambda x: codomain.zero(ring, x.degree + 1),
    )
    [failing] = diagonal_homotopy_report(3, 3).checks
    assert not failing.ok and failing.name == passing.name
    assert failing.counterexample == (0, 2)


def test_simple_coinvariant_diagonals():
    # EZ . Delta-bar (xbar_2k) = sum of xbar_2i x xbar_2j on coinvariants
    from chainops.complexes import TensorComplex
    from chainops.maclane import cyc_eg, ez_maclane
    from chainops.minimal import delta_M, minimal_complex, phi_to_EC, pi_from_EC

    p = 3
    fp = GF(p)
    EC = cyc_eg(p)
    M = minimal_complex(p)

    def Delta(x):
        two = delta_M(pi_from_EC(x))
        T = TensorComplex((EC, EC))
        return two.map_terms(
            lambda gen: [
                (ca * cb, (ga, gb))
                for ga, ca in phi_to_EC(M.el(fp, gen[0])).terms.items()
                for gb, cb in phi_to_EC(M.el(fp, gen[1])).terms.items()
            ],
            codomain=T,
        )

    x2 = phi_to_EC(M.el(fp, (0, 2)))
    val = ez_maclane(Delta(x2))
    # project both coordinates to BC x BC classes: the odd-by-odd group
    # cancels mod p and only xbar_0 x xbar_2 + xbar_2 x xbar_0 survives
    proj = {}
    for gen, c in val.terms.items():
        rows = tuple(zip(*gen))
        key = tuple(tuple((v - row[0]) % p for v in row) for row in rows)
        proj[key] = (proj.get(key, 0) + c) % p
    proj = {g: c for g, c in proj.items() if c}
    x2_classes = {(0, 1, 2), (0, 2, 0)}
    const = (0, 0, 0)
    assert proj == {
        **{(const, cls): 1 for cls in x2_classes},
        **{(cls, const): 1 for cls in x2_classes},
    }
