"""Workload `cochain`: cup-i products, Steenrod squares and S(3) operations
through `action.dual_operation` on generated triangulations.

One operation is one dual_operation call.  A round is fifteen calls:

* RP^2 (6 vertices): x cup x for a fresh integer lift of a cocycle
  representing the generator x of H^1(RP^2; F_2), found by the benchmark's
  own F_2 linear algebra; <x^2, [RP^2]> = 1.
* RP^2 x RP^2 (600 four-simplices), mod 2, from fresh lifts x, y of the
  pull-backs of that cocycle along the two projections:
  xy = x cup y, Sq^2(xy) = xy cup_0 xy, Sq^1(xy) = xy cup_1 xy,
  Sq^1(xy) cup x and Sq^1(xy) cup y.  <Sq^2(xy), [M]> = 1 and
  <Sq^1(xy) x, [M]> = <Sq^1(xy) y, [M]> = 1, since Sq^1(xy) = x^2 y + x y^2.
* The boundary of the 6-simplex, over Z, with seeded random cochains
  (values +-2^e with distinct exponents, so no coboundary value is 0): the
  S(3) operation c(1,2,1,3) on (alpha, beta, gamma) and the cup-1 product
  c(1,2,1) on (alpha, beta), each with the calls that the chain-map
  identity needs:  d Phi(x; a_1..a_n) = Phi(dx; a) +
  sum_i (-1)^(|x| + |a_1| + ... + |a_(i-1)|) Phi(x; .. d a_i ..).

No input repeats: every round draws new cochains and coefficients.  The
work of a round does not depend on the seed: the degrees are fixed, and
every input cochain is nonzero on every simplex it could be evaluated on
(the mod-2 class representatives differ between draws only by their
integer lift), so the library meets the same zeros in every draw.
"""

import random
import sys

from chainops.action import Cochain, FaceTable, dual_operation
from chainops.complexes import boundary
from chainops.rings import GF, ZZ
from chainops.surjections import surjection_complex

import layers
from spaces import (
    RP2_TRIANGLES, Space, distinct_powers_cochain, lift_mod2, product_tops, pull_back_1cochain,
    sphere_tops,
)

F2 = GF(2)
SPHERE_N = 6
TRIPLE = ((1, 2, 1, 3), (1, 1, 2))
CUP1 = ((1, 2, 1), (2, 2))


class Load:
    def __init__(self, seed, root, trace):
        self.seed = seed
        self.rp2 = Space(RP2_TRIANGLES)
        self.prod = Space(product_tops(RP2_TRIANGLES, RP2_TRIANGLES))
        self.sphere = Space(sphere_tops(SPHERE_N))
        for space in (self.rp2, self.prod):
            if not space.is_mod2_manifold():
                raise ValueError("triangulation is not a closed mod-2 manifold")
        self.x_mod2 = self.rp2.h1_generator_mod2()
        self.tables = {
            name: FaceTable(space.table_data)
            for name, space in (("rp2", self.rp2), ("prod", self.prod), ("sphere", self.sphere))
        }
        self.S2 = surjection_complex("bf", 2)
        self.S3 = surjection_complex("bf", 3)
        self.cup = self.S2.el(ZZ, (1, 2))
        self.cup1 = self.S2.el(ZZ, (1, 2, 1))
        self.last = None
        self.identities = []

    def close(self):
        pass

    # -- inputs ------------------------------------------------------------

    def round(self, r):
        rng = random.Random(self.seed * 1_000_003 + r)
        out = {}
        ops = []

        def op(key, x, cochains, table, ring):
            """Queue dual_operation(x, cochains); a cochain given as a string
            is the output of an earlier operation of the round."""

            def run():
                args = [out[c] if isinstance(c, str) else c for c in cochains]
                out[key] = dual_operation(x, args, self.tables[table], ring)
                return out[key]

            ops.append(run)

        def lift():
            return lift_mod2(rng, self.rp2, 1, self.x_mod2)

        xr = Cochain(1, lift())
        op("rp2_sq", self.cup, [xr, xr], "rp2", F2)

        x1 = Cochain(1, pull_back_1cochain(self.prod, lift(), 0))
        y2 = Cochain(1, pull_back_1cochain(self.prod, lift(), 1))
        op("xy", self.cup, [x1, y2], "prod", F2)
        op("sq2", self.cup, ["xy", "xy"], "prod", F2)
        op("sq1", self.cup1, ["xy", "xy"], "prod", F2)
        op("sq1_x", self.cup, ["sq1", x1], "prod", F2)
        op("sq1_y", self.cup, ["sq1", y2], "prod", F2)

        self.identities = []
        for gen, degrees in (TRIPLE, CUP1):
            cplx = self.S3 if max(gen) == 3 else self.S2
            x = cplx.el(ZZ, gen, rng.choice((-2, -1, 1, 2)))
            alphas = [Cochain(d, distinct_powers_cochain(rng, self.sphere, d)) for d in degrees]
            tag = f"s{max(gen)}"
            op(f"{tag}_phi", x, alphas, "sphere", ZZ)
            op(f"{tag}_dx", boundary(x), alphas, "sphere", ZZ)
            terms = []
            for i, a in enumerate(alphas):
                da = Cochain(a.degree + 1, self.sphere.coboundary(a.degree, a.values))
                moved = alphas[:i] + [da] + alphas[i + 1:]
                sign = (-1) ** (x.degree + sum(b.degree for b in alphas[:i]))
                op(f"{tag}_d{i}", x, moved, "sphere", ZZ)
                terms.append((sign, f"{tag}_d{i}"))
            self.identities.append((tag, terms))
        self.last = out
        return ops

    # -- oracles -----------------------------------------------------------

    def check(self, r, outputs):
        return self.check_outputs(self.last, self.identities)

    def check_outputs(self, out, identities):
        problems = []
        pairings = (
            ("<x^2, [RP2]>", self.rp2, "rp2_sq", 2),
            ("<Sq2(xy), [RP2xRP2]>", self.prod, "sq2", 4),
            ("<Sq1(xy) x, [RP2xRP2]>", self.prod, "sq1_x", 4),
            ("<Sq1(xy) y, [RP2xRP2]>", self.prod, "sq1_y", 4),
        )
        for name, space, key, degree in pairings:
            c = out[key]
            if c.degree != degree or space.pair_fundamental_mod2(c.values) != 1:
                problems.append(f"{name} != 1")
        for key in ("xy", "sq1"):
            c = out[key]
            d = self.prod.coboundary(c.degree, c.values)
            if any(v % 2 for v in d.values()):
                problems.append(f"{key} is not a mod-2 cocycle")
        for tag, terms in identities:
            phi = out[f"{tag}_phi"]
            lhs = self.sphere.coboundary(phi.degree, phi.values)
            rhs = dict(out[f"{tag}_dx"].values)
            for sign, key in terms:
                for i, v in out[key].values.items():
                    rhs[i] = rhs.get(i, 0) + sign * v
            rhs = {i: v for i, v in rhs.items() if v}
            if lhs != rhs:
                problems.append(f"chain-map identity fails for {tag}")
        return problems

    def controls(self):
        """A perturbed Sq^2(xy) and a perturbed Phi must be rejected."""
        out = dict(self.last)
        sq2 = out["sq2"]
        top = self.prod.ids[self.prod.by_dim[4][0]]
        bad = dict(sq2.values)
        bad[top] = (bad.get(top, 0) + 1) % 2
        out["sq2"] = Cochain(sq2.degree, bad)
        mod2_rejected = any("Sq2" in p for p in self.check_outputs(out, []))

        out = dict(self.last)
        phi = out["s3_phi"]
        bad = dict(phi.values)
        some = next(iter(bad))
        bad[some] += 1
        out["s3_phi"] = Cochain(phi.degree, bad)
        z_rejected = any("s3" in p for p in self.check_outputs(out, self.identities))
        return [
            ("perturbed Sq2(xy) cochain", mod2_rejected),
            ("perturbed S(3) operation value", z_rejected),
        ]

    # -- tracing -----------------------------------------------------------

    def start_trace(self, tracer):
        layers.install(tracer, sys.modules[__name__])

    def layer_metrics(self, tracer, factor):
        return layers.metrics(tracer, factor)
