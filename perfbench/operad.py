"""Workload `operad`: closed formulas against their recursive oracles.

One operation is one basis tensor: the closed formula and its recursive
standard-procedure oracle are evaluated on it and compared.  The pairs are

  surj_compose            vs  surj_engine (TwistedOperadMap, surjections)
  be_compose              vs  be_engine (TwistedOperadMap, Barratt-Eccles)
  table_reduction         vs  table_reduction_standard (StandardMap)
  bf_action               vs  BFActionStandard

A round sweeps every shape in SHAPES in increasing degree (and, for the
action, increasing ambient dimension) over one prime field GF(p).  Each
round has its own field and its own engines, so no input repeats within a
run and every round does the same work; the engines' memos fill over a
round's sweep as they would for a user who builds them once and sweeps.
Set-up builds the first round's engines, which a user pays once; every
later round builds its own before its operations are timed.  The seed
picks the fields.

Besides closed = oracle, every result must commute with the boundary:
d O(x) = O(d x), where O(d x) is assembled by the benchmark from the
results it already holds for the lower-degree tensors.
"""

import random
import sys

from chainops.action import BFActionStandard, bf_action
from chainops.complexes import TensorComplex, boundary
from chainops.maclane import sym_eg
from chainops.morphisms import table_reduction, table_reduction_standard
from chainops.operads import be_compose, be_engine, engine_compose, surj_compose, surj_engine
from chainops.rings import GF
from chainops.surjections import surjection_complex

import layers

PRIMES = [p for p in range(1009, 20000) if all(p % d for d in range(2, int(p**0.5) + 1))]
# (kind, parameters, max degree)
SHAPES = (
    ("surj", (2, 2, 2), 3),
    ("surj", (2, 1, 3), 2),
    ("surj", (3, 1, 2, 1), 2),
    ("be", (2, 2, 2), 2),
    ("be", (2, 1, 3), 1),
    ("be", (3, 2, 1, 1), 1),
    ("tr", ("bf", 3), 2),
    ("tr", ("ms", 3), 2),
    ("tr", ("aj", 3), 2),
    ("bf", (2, 3), 3),  # (arity, max ambient dimension), max degree
    ("bf", (3, 2), 2),
)


class Engines:
    def __init__(self, ring):
        self.ring = ring
        self.surj = surj_engine("bf", ring)
        self.be = be_engine(ring)
        self.tr = {
            params: table_reduction_standard(params[0], params[1], ring)
            for kind, params, _ in SHAPES if kind == "tr"
        }
        self.bf = {
            params[0]: BFActionStandard(params[0], ring)
            for kind, params, _ in SHAPES if kind == "bf"
        }


class Load:
    # A fixed number of rounds per requested second, about what a 2-core
    # x86-64 container does today: TwistedOperadMap.domain is an lru_cache on a
    # method, so it keeps every engine and its memos alive, and peak memory
    # grows with the rounds run.  A time-bounded run would make peak_rss_mb
    # depend on the machine's speed.
    ROUNDS_PER_SECOND = 2.5

    def __init__(self, seed, root, trace):
        self.primes = list(PRIMES)
        random.Random(seed).shuffle(self.primes)
        self.engines = Engines(GF(self.primes[0]))
        self.domains = {}
        for kind, params, _ in SHAPES:
            if kind == "surj":
                self.domains[kind, params] = TensorComplex(
                    tuple(surjection_complex("bf", a) for a in params))
            elif kind == "be":
                self.domains[kind, params] = TensorComplex(tuple(sym_eg(a) for a in params))
        self.pending = []
        self.last = None

    def close(self):
        pass

    def round(self, r):
        if r > 0:
            self.engines = Engines(GF(self.primes[r]))
        eng = self.engines
        R = eng.ring
        ops = []
        self.pending = []
        for kind, params, max_degree in SHAPES:
            if kind in ("surj", "be"):
                dom = self.domains[kind, params]
                for k in range(max_degree + 1):
                    for gen in dom.basis(k):
                        xs = [f.el(R, g) for f, g in zip(dom.factors, gen)]
                        if kind == "surj":
                            op = (lambda xs=xs: pair(
                                surj_compose("bf", xs[0], xs[1:], R),
                                engine_compose(eng.surj, xs[0], xs[1:])))
                        else:
                            op = (lambda xs=xs: pair(
                                be_compose(xs[0], xs[1:], R),
                                engine_compose(eng.be, xs[0], xs[1:])))
                        ops.append(op)
                        self.pending.append(((kind, params, gen, None), dom))
            elif kind == "tr":
                flavor, n = params
                E = sym_eg(n)
                std = eng.tr[params]
                for k in range(max_degree + 1):
                    for gen in E.basis(k):
                        x = E.el(R, gen)
                        ops.append(lambda x=x, f=flavor, s=std: pair(table_reduction(f, x), s(x)))
                        self.pending.append(((kind, params, gen, None), E))
            else:
                n, max_m = params
                S = surjection_complex("bf", n)
                std = eng.bf[n]
                for m in range(max_m + 1):
                    for k in range(max_degree + 1):
                        for gen in S.basis(k):
                            x = S.el(R, gen)
                            ops.append(lambda x=x, m=m, s=std: pair(bf_action(x, m), s.apply(x, m)))
                            self.pending.append(((kind, params, gen, m), S))
        self.ring = R
        return ops

    # -- oracles -----------------------------------------------------------

    def check(self, r, outputs):
        self.last = outputs
        return self.check_outputs(outputs)

    def check_outputs(self, outputs):
        p = self.ring.p
        values = {}
        problems = []
        for (key, dom), (value, same) in zip(self.pending, outputs):
            kind, params, gen, m = key
            values[key] = value
            if not same:
                problems.append(f"{kind} {params} {gen} m={m}: closed != recursive")
                continue
            expect = {}
            for c, face in dom.boundary_terms(gen):
                face = dom.canonical(face)
                if face is not None:
                    for g, v in values[(kind, params, face, m)].terms.items():
                        expect[g] = (expect.get(g, 0) + c * v) % p
            if kind == "bf" and m > 0:
                k = len(gen) - params[0]
                below = values[(kind, params, gen, m - 1)]
                for j in range(m + 1):
                    vmap = [v + (v >= j) for v in range(m)]
                    sign = (-1) ** (k + j)
                    for g, c in below.terms.items():
                        pushed = tuple(tuple(vmap[v] for v in f) for f in g)
                        expect[pushed] = (expect.get(pushed, 0) + sign * c) % p
            expect = {g: c for g, c in expect.items() if c}
            got = {g: c % p for g, c in boundary(value).terms.items() if c % p}
            if got != expect:
                problems.append(f"{kind} {params} {gen} m={m}: d O != O d")
        return problems

    def controls(self):
        """A result with one coefficient changed must be rejected."""
        outputs = list(self.last)
        i = max(j for j, (v, _) in enumerate(outputs) if len(v.terms) > 1)
        value, same = outputs[i]
        bad = value + value.complex.el(value.ring, next(iter(value.terms)), 1)
        outputs[i] = (bad, same)
        return [("one coefficient changed in a closed-formula result",
                 bool(self.check_outputs(outputs)))]

    # -- tracing -----------------------------------------------------------

    def start_trace(self, tracer):
        layers.install(tracer, sys.modules[__name__])

    def layer_metrics(self, tracer, factor):
        return layers.metrics(tracer, factor)


def pair(closed, recursive):
    return closed, closed == recursive
