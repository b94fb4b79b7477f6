"""Workload `sweep`: the contraction sweep, one complex per operation.

One operation is one `procedure.verify_contracted(complex, max_degree,
ring)` call (all identities, equivariance included).  The mix follows
the measured cost of acceptance criterion 1 (`contracted_suite(4, 4)`,
every complex to degree 4), where S^ms(4), N(ESigma_4), S^bf(4) and
S^aj(4) take 44 of 50 s.  Those sweeps take 9 to 14 s each, too long
for one operation of a run, so ROUND sweeps the complexes that make
99.8 % of criterion 1's time at lower degrees: the four arity-4
complexes (S(4) to degree 2, N(ESigma_4) to degree 1), then N(ESigma_3),
N(EC_5..7) and S(3) of all flavors, plus a simplex and a minimal
resolution; the arity-4 sweeps take 85 % of a round's time.  Two
tensor products, the domains of the surjection and Barratt-Eccles
engines, are the minority the operad engines add.  A round is the same
for every seed and every round; the seed picks the prime field of every
operation, which changes no work.

A user sweeps each complex once in a process.  So that a repeated
complex gains nothing from a cache of an earlier round, every round
first empties every functools cache of chainops (the complex factories
too) and builds its complexes afresh; within a round no complex repeats.

The benchmark checks every report: every identity passes, and every
sweep's generator count equals the basis size that `basis_count` below
enumerates without chainops.  The negative control is a surjection
complex with one contraction sign flipped, which must fail.
"""

import random
import sys
from functools import lru_cache
from itertools import product
from math import comb, factorial

from chainops.complexes import TensorComplex
from chainops.maclane import cyc_eg, sym_eg
from chainops.minimal import minimal_complex
from chainops.procedure import verify_contracted
from chainops.rings import GF
from chainops.simplex import simplex_complex
from chainops.surjections import SurjectionComplex, surjection_complex

import layers

# (factors, max degree) in criterion 1's order; a factor is (kind, n[, flavor]).
ROUND = (
    ((("simplex", 4),), 4),
    ((("sym", 3),), 2),
    ((("sym", 4),), 1),
    ((("cyc", 5),), 3),
    ((("cyc", 6),), 2),
    ((("cyc", 7),), 2),
    ((("minimal", 7),), 4),
    ((("surj", 3, "aj"),), 3),
    ((("surj", 4, "aj"),), 2),
    ((("surj", 3, "bf"),), 3),
    ((("surj", 4, "bf"),), 2),
    ((("surj", 3, "ms"),), 3),
    ((("surj", 4, "ms"),), 2),
    ((("surj", 2, "bf"),) * 3, 2),
    ((("sym", 2),) * 3, 1),
)
PRIMES = [p for p in range(3, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]


# -- the benchmark's own basis enumeration ------------------------------------


def surjection_count(n, k):
    """Nondegenerate surjections {1..n+k} -> {1..n} (no equal neighbours)."""
    length = n + k
    return sum(
        (-1) ** (n - j) * comb(n, j) * j * (j - 1) ** (length - 1) for j in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def basis_count(spec, k):
    kind, n = spec[0], spec[1]
    if kind == "surj":
        return surjection_count(n, k)
    if kind in ("cyc", "sym"):
        g = n if kind == "cyc" else factorial(n)
        return g * (g - 1) ** k
    if kind == "simplex":
        return comb(n + 1, k + 1) if k <= n else 0
    if kind == "minimal":
        return n
    raise ValueError(kind)


def group_order(spec):
    kind, n = spec[0], spec[1]
    if kind in ("surj", "sym"):
        return factorial(n)
    if kind in ("cyc", "minimal"):
        return n
    return None


@lru_cache(maxsize=None)
def tensor_count(specs, k):
    """Degree-k basis size of a tensor product: a convolution of the factors'."""
    total = 0
    for degrees in product(range(k + 1), repeat=len(specs)):
        if sum(degrees) == k:
            part = 1
            for spec, d in zip(specs, degrees):
                part *= basis_count(spec, d)
            total += part
    return total


def basis_up_to(specs, max_degree):
    return sum(tensor_count(specs, k) for k in range(max_degree + 1))


def has_group(specs):
    """A tensor product carries a group action when every factor does."""
    return None not in map(group_order, specs)


def build(spec):
    kind, n = spec[0], spec[1]
    if kind == "surj":
        return surjection_complex(spec[2], n)
    if kind == "cyc":
        return cyc_eg(n)
    if kind == "sym":
        return sym_eg(n)
    if kind == "simplex":
        return simplex_complex(n)
    return minimal_complex(n)


def build_round():
    complexes = []
    for specs, _ in ROUND:
        factors = tuple(build(s) for s in specs)
        complexes.append(factors[0] if len(factors) == 1 else TensorComplex(factors))
    return complexes


def clear_caches():
    """Empty every functools cache that a chainops module defines, at
    module level or on a class."""
    for name, module in list(sys.modules.items()):
        if name != "chainops" and not name.startswith("chainops."):
            continue
        for obj in list(vars(module).values()):
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *members):
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


def spec_name(specs):
    return " (x) ".join("/".join(str(p) for p in s) for s in specs)


class FlippedSurjections(SurjectionComplex):
    """S^bf(3) with the sign of one contraction term flipped: a broken copy
    that verify_contracted must reject."""

    def contraction_terms(self, gen):
        terms = super().contraction_terms(gen)
        if gen == (2, 1, 3, 1) and terms:
            c, g = terms[0]
            terms = [(-c, g)] + terms[1:]
        return terms


class Load:
    def __init__(self, seed, root, trace):
        self.seed = seed
        self.complexes = build_round()
        self.pending = []

    def close(self):
        pass

    def round(self, r):
        if r > 0:
            clear_caches()
            self.complexes = build_round()
        rng = random.Random(self.seed * 1_000_003 + r)
        self.pending = list(ROUND)
        return [
            lambda c=cplx, d=degree, R=GF(rng.choice(PRIMES)): verify_contracted(c, d, R)
            for cplx, (_, degree) in zip(self.complexes, ROUND)
        ]

    def check(self, r, reports):
        problems = []
        for (specs, degree), report in zip(self.pending, reports):
            problems.extend(check_report(specs, degree, report))
        return problems

    def controls(self):
        broken = FlippedSurjections("bf", 3)
        report = verify_contracted(broken, 2)
        return [("flipped contraction sign in S^bf(3)", not report.ok)]

    def start_trace(self, tracer):
        """Trace the round just built; its sweeps visit every basis generator
        once per identity (four with a group action, else three)."""
        for specs, degree in self.pending:
            sweeps = 4 if has_group(specs) else 3
            tracer.gens_visited += sweeps * basis_up_to(specs, degree)
        layers.install(tracer, sys.modules[__name__])

    def layer_metrics(self, tracer, factor):
        return layers.metrics(tracer, factor)


def check_report(specs, degree, report):
    name = spec_name(specs)
    expected = basis_up_to(specs, degree)
    problems = []
    if not report.ok:
        problems.append(f"{name}: identity failed: {report}")
    names = [c.name for c in report.checks]
    wanted = ["d.d = 0", "dh + hd = Id - rho", "h.h = 0", "h.iota = 0"]
    if has_group(specs):
        wanted.append("d equivariant")
    if names != wanted:
        problems.append(f"{name}: checks {names}, expected {wanted}")
    for c in report.checks:
        want = 1 if c.name == "h.iota = 0" else expected
        if c.checked != want:
            problems.append(f"{name}: {c.name} visited {c.checked}, enumeration gives {want}")
    return problems
