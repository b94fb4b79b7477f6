"""Join-homotopy witnesses for the power-map boundary identities.

For C = C_p inside Sigma_p and ell coprime to p this module builds
  J  : homotopy between iota_ell and phi.lambda.pi on N(EC_p),
  K  : homotopy between Id and right multiplication by the
       multiply-by-ell permutation g on N(ESigma_p),
  L  : iota . J - K . iota . iota_ell,
and verifies, exactly:
  ell^k x_2k - iota_ell(x_2k)            = (dJ + Jd) x_2k        over Z,
  ell^k xbar_2k - iota_ell(xbar_2k)      = d(Jbar xbar_2k)       in N(BC_p; F_p),
  (ell^k - 1) iota(xbar_2k)              = d(Lbar xbar_2k)       in N(BSigma_p; F_p),
  (ell^k + 1) iota(xbar_2k)              = d(Lbar xbar_2k)       twisted,
with the odd-degree x_(2k-1) variants, plus the diagonal homotopy of
the EZ.AW route against EZ.(phi x phi).Delta.pi.
"""

from .complexes import TensorComplex, act, boundary
from .elements import built
from .errors import InvalidInput
from .groups import CyclicGroup, ProductGroup
from .maclane import (
    InducedMap,
    JoinHomotopy,
    coinvariants,
    cyc_eg,
    cyclic_into_symmetric,
    ez_maclane,
    maclane_complex,
    power_map,
    sym_eg,
)
from .minimal import (
    canonical_class,
    delta_M,
    lambda_power,
    minimal_complex,
    phi_to_EC,
    pi_from_EC,
)
from .perms import Perm
from .procedure import Check, Report, first_fail
from .rings import GF, ZZ
from .simplex import multidiagonal


def multiply_perm(ell, p):
    """The permutation j -> j*ell mod p of {1..p} (p plays the role of 0)."""
    images = []
    for j in range(1, p + 1):
        v = (j * ell) % p
        images.append(v if v else p)
    return Perm(images)


class PowerWitness:
    def __init__(self, p, ell, ring=ZZ):
        if ell < 1 or ell % p == 0:
            raise InvalidInput("ell must be invertible mod p")
        self.p = p
        self.ell = ell
        self.ring = ring
        self.M = minimal_complex(p)
        self.EC = cyc_eg(p)
        self.ES = sym_eg(p)
        self.iota_ell = InducedMap(power_map(ell, p), self.EC, self.EC, ring)
        self.iota = InducedMap(cyclic_into_symmetric(p), self.EC, self.ES, ring)
        self.g = multiply_perm(ell, p)

        def phi_lambda_pi(x):
            return phi_to_EC(lambda_power(ell, pi_from_EC(x)))

        self.phi_lambda_pi = phi_lambda_pi
        self.J = JoinHomotopy(self.iota_ell, phi_lambda_pi, self.EC, self.EC, ring)
        g = self.g
        self.rmul_g = lambda x: x.map_terms(
            lambda gen: [(1, tuple(h * g for h in gen))]
        )
        self.K = JoinHomotopy(lambda x: x, self.rmul_g, self.ES, self.ES, ring)

    def x(self, k):
        return canonical_class(self.p, k, self.ring)

    def L(self, x):
        return self.iota(self.J(x)) - self.K(self.iota(self.iota_ell(x)))

    def homotopy_defect_J(self, x):
        return boundary(self.J(x)) + self.J(boundary(x))

    def check_J_identity(self, max_degree):
        def cases():
            for k in range(max_degree + 1):
                for b in self.EC.basis(k):
                    x = built(self.EC, self.ring, b)
                    yield b, self.homotopy_defect_J(x) == self.phi_lambda_pi(x) - self.iota_ell(x)

        return first_fail("dJ+Jd = phi.lambda.pi - iota_ell", cases())

    def check_power_identities(self, max_k):
        """ell^k x_2k - iota_ell(x_2k) = (dJ+Jd)x_2k and the odd variant, over Z."""
        checks = []
        for twok in range(0, 2 * max_k + 1):
            x = self.x(twok)
            lhs = self.homotopy_defect_J(x)
            k, odd = divmod(twok, 2)
            if odd:
                scale = self.ell**k
                target = self.EC.zero(self.ring, twok)
                for i in range(self.ell):
                    target = target + scale * act(i, x)
                target = target - self.iota_ell(x)
            else:
                target = (self.ell**k) * x - self.iota_ell(x)
            checks.append(
                Check(f"(dJ+Jd) x_{twok} boundary witness", lhs == target)
            )
        return checks

    def check_coinvariant_identities(self, max_k):
        """In N(BC_p; F_p): ell^k xbar - iota_ell xbar = d(Jbar xbar)."""
        fp = GF(self.p)
        wit = PowerWitness(self.p, self.ell, fp)
        checks = []
        for twok in range(1, 2 * max_k + 1):
            x = wit.x(twok)
            k = (twok + 1) // 2
            lhs = (wit.ell**k) * coinvariants(x) - coinvariants(wit.iota_ell(x))
            rhs = boundary(coinvariants(wit.J(x)))
            checks.append(
                Check(f"BC_p witness for xbar_{twok}", lhs == rhs)
            )
        return checks

    def check_symmetric_witnesses(self, max_k, twist):
        """(ell^k -+ 1) iota(xbar) = d(Lbar xbar) in (twisted) N(BSigma_p; F_p)."""
        fp = GF(self.p)
        wit = PowerWitness(self.p, self.ell, fp)
        shift = 1 if twist else -1
        checks = []
        for twok in range(1, 2 * max_k + 1):
            x = wit.x(twok)
            k = (twok + 1) // 2
            lhs = (wit.ell**k + shift) * coinvariants(wit.iota(x), twist=twist)
            rhs = boundary(coinvariants(wit.L(x), twist=twist))
            name = f"{'twisted ' if twist else ''}BSigma_p witness for xbar_{twok}"
            checks.append(Check(name, lhs == rhs))
        return checks


def diagonal_homotopy_report(p, max_degree, ring=ZZ):
    """The join homotopy between EZ.Delta_AW and
    EZ.(phi x phi).Delta_M.pi on N(EC_p)."""
    EC = cyc_eg(p)
    prod = maclane_complex(ProductGroup((CyclicGroup(p), CyclicGroup(p))))

    def phi0(x):
        return ez_maclane(multidiagonal(2, x))

    def phi1(x):
        two = delta_M(pi_from_EC(x))
        T = TensorComplex((EC, EC))
        M = minimal_complex(p)
        lifted = two.map_terms(
            lambda gen: [
                (ca * cb, (ga, gb))
                for ga, ca in phi_to_EC(built(M, ring, gen[0])).terms.items()
                for gb, cb in phi_to_EC(built(M, ring, gen[1])).terms.items()
            ],
            codomain=T,
        )
        return ez_maclane(lifted)

    J = JoinHomotopy(phi0, phi1, EC, prod, ring)

    def cases():
        for k in range(max_degree + 1):
            for b in EC.basis(k):
                x = built(EC, ring, b)
                yield b, boundary(J(x)) + J(boundary(x)) == phi1(x) - phi0(x)

    name = f"dJ+Jd = EZ.(phi x phi).Delta.pi - EZ.Delta_AW (deg<={max_degree})"
    return Report("diagonal homotopy", [first_fail(name, cases())])


def power_witness_report(p, ell, max_k, max_degree=None):
    wit = PowerWitness(p, ell)
    checks = [wit.check_J_identity(max_degree if max_degree is not None else 2 * max_k)]
    checks.extend(wit.check_power_identities(max_k))
    checks.extend(wit.check_coinvariant_identities(max_k))
    checks.extend(wit.check_symmetric_witnesses(max_k, twist=False))
    checks.extend(wit.check_symmetric_witnesses(max_k, twist=True))
    return Report(f"power-map boundary witnesses (p={p}, ell={ell})", checks)
