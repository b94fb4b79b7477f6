"""chainops benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds `src/chainops`; the benchmark
imports the library from there and installs nothing.  Workloads:

  sweep    verify_contracted on the complexes of the contraction suite
  cochain  dual_operation on generated triangulations (RP^2, RP^2 x RP^2,
           boundaries of simplices)
  operad   closed formulas against their recursive oracles, tensor by tensor
  cli      cold `python -m chainops.cli` invocations

A run sets the workload up SETUP_REPEATS times (each time from a fresh
import of chainops) and reports the median as `setup_s`, then runs whole
rounds of operations until `--seconds` have passed and at least MIN_OPS
operations were timed (or, for a workload that sets ROUNDS_PER_SECOND,
that many rounds per requested second), checking every round's outputs
against the benchmark's own oracles, then runs the negative controls.

Timings are reported in reference-normalised seconds: each raw time is
multiplied by REF_NOMINAL_S and divided by the measured time of a fixed
pure-Python reference kernel run next to it (see run_rounds; set-up is
bracketed by REF_PER_MARK kernel runs on each side).  The machine's speed
drifts by tens of percent between processes and within one; the ratio of
an operation's time to the kernel's drifts far less.  The raw figures and
every raw time of the kernel are printed on the `# raw` line before the
result.

With `--trace 1` the run instead times TRACE_ROUNDS rounds untraced, then
as many fresh rounds with the per-layer wrappers of layers.py installed
while their operations run, and prints the per-layer metrics.  The last line of standard output
is always one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_MODULES = {
    "sweep": "sweep",
    "cochain": "cochain",
    "operad": "operad",
    "cli": "cliload",
}
# Modules re-imported for every set-up, so each set-up pays the imports.
FRESH_MODULES = ("chainops", "spaces", "sweep", "cochain", "operad", "cliload")

SETUP_REPEATS = 5
MIN_OPS = 100
REF_NOMINAL_S = 1e-3
REF_PER_MARK = 3
MARK_EVERY_S = 0.02
TRACE_ROUNDS = {"sweep": 2, "cochain": 4, "operad": 2, "cli": 2}


REF_KEYS = [(i % 97, i % 13) for i in range(6000)]


def ref_kernel():
    """Fixed pure-Python work (dict lookups, tuple hashing and int churn,
    no chainops); about a millisecond on a 2-core x86 container.  Its keys
    are built once, so it allocates almost no objects the cyclic garbage
    collector tracks and leaves the program's collections alone."""
    acc = {}
    for i, key in enumerate(REF_KEYS):
        acc[key] = acc.get(key, 0) + i
    total = 0
    for key, value in acc.items():
        total ^= value + key[0]
    return total


def ref_kernel_time():
    """One timed kernel run, with the garbage collector held off so that a
    collection of the program's heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ref_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def ref_mark():
    return [ref_kernel_time() for _ in range(REF_PER_MARK)]


def purge_modules():
    for name in list(sys.modules):
        if name.split(".")[0] in FRESH_MODULES:
            del sys.modules[name]


def set_up(workload, seed, trace, ref_times):
    """Import chainops and build the workload's inputs SETUP_REPEATS times;
    returns the last load and the per-repeat (raw, normalised) times."""
    raws, norms = [], []
    load = None
    for _ in range(SETUP_REPEATS):
        purge_modules()
        load = None
        before = ref_mark()
        t0 = time.perf_counter()
        module = importlib.import_module(WORKLOAD_MODULES[workload])
        load = module.Load(seed, ROOT, trace)
        raw = time.perf_counter() - t0
        after = ref_mark()
        ref_times.extend(before + after)
        raws.append(raw)
        norms.append(raw * REF_NOMINAL_S / statistics.median(before + after))
    return load, raws, norms


class Phase:
    """Raw and normalised times of the operations of consecutive rounds,
    kept in arrays (8 bytes a time) so that the benchmark's own bookkeeping
    adds little to peak_rss_mb."""

    def __init__(self):
        self.raw = array("d")
        self.norm = array("d")
        self.failed = 0
        self.problems = []
        self.errors = []
        self.rounds = 0
        self.factors = []


def run_rounds(load, phase, ref_times, first_round, seconds=None, rounds=None, tracer=None):
    """Run whole rounds from `first_round` until `seconds` of wall time have
    passed and MIN_OPS operations were timed, or for exactly `rounds`.
    With a tracer, the layer wrappers are installed only while a round's
    operations run, so building inputs and checking outputs is not counted.

    The reference kernel runs once after the first operation that ends
    MARK_EVERY_S or more after the previous run, and at the end of every
    round; the operations between two kernel runs are normalised by the
    mean of those two."""
    prev = ref_kernel_time()
    ref_times.append(prev)
    last_mark = time.perf_counter()
    start = last_mark
    pending = []

    def mark():
        nonlocal prev, last_mark
        now = ref_kernel_time()
        ref_times.append(now)
        factor = REF_NOMINAL_S / ((prev + now) / 2)
        phase.factors.append(factor)
        phase.raw.extend(pending)
        phase.norm.extend(t * factor for t in pending)
        pending.clear()
        prev = now
        last_mark = time.perf_counter()

    r = first_round
    while True:
        ops = load.round(r)
        outputs = []
        if tracer is not None:
            load.start_trace(tracer)
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # an operation that raises counts as failed
                pending.append(time.perf_counter() - t0)
                outputs.append(None)
                phase.failed += 1
                phase.errors.append(f"round {r}: " + traceback.format_exc(limit=3))
            else:
                pending.append(time.perf_counter() - t0)
                outputs.append(out)
            if time.perf_counter() - last_mark >= MARK_EVERY_S:
                mark()
        if pending:
            mark()
        if tracer is not None:
            tracer.uninstall()
        if None not in outputs:
            phase.problems.extend(f"round {r}: {p}" for p in load.check(r, outputs))
        r += 1
        phase.rounds += 1
        if rounds is not None:
            if phase.rounds >= rounds:
                return r
        elif time.perf_counter() - start >= seconds and len(phase.raw) >= MIN_OPS:
            return r


def latency_metrics(times):
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": cuts[8] * 1e3,
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "chainops" / "__init__.py").is_file():
        print(f"error: no chainops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    ref_times = []
    load, setup_raw, setup_norm = set_up(args.workload, args.seed, args.trace, ref_times)
    import chainops

    if not Path(chainops.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: chainops imported from {chainops.__file__}", file=sys.stderr)
        return 2

    try:
        phase = Phase()
        extra = {}
        if args.trace:
            import layers as tracing

            base = Phase()
            n = TRACE_ROUNDS[args.workload]
            nxt = run_rounds(load, base, ref_times, 0, rounds=n)
            tracer = tracing.Tracer()
            run_rounds(load, phase, ref_times, nxt, rounds=n, tracer=tracer)
            factor = statistics.median(phase.factors)
            metrics = {
                name: metric(value, unit)
                for name, (value, unit) in load.layer_metrics(tracer, factor).items()
            }
            metrics["trace.overhead_ratio"] = metric(
                latency_metrics(phase.norm)["ops_per_s"]
                / latency_metrics(base.norm)["ops_per_s"],
                "ratio",
            )
            phase.failed += base.failed
            phase.problems.extend(base.problems)
            phase.errors.extend(base.errors)
            attempted = len(base.raw) + len(phase.raw)
        else:
            per_second = getattr(load, "ROUNDS_PER_SECOND", None)
            if per_second:
                run_rounds(load, phase, ref_times, 0, rounds=round(args.seconds * per_second))
            else:
                run_rounds(load, phase, ref_times, 0, seconds=args.seconds)
            norm = latency_metrics(phase.norm)
            raw = latency_metrics(phase.raw)
            metrics = {
                "ops_per_s": metric(norm["ops_per_s"], "1/s"),
                "op_p50_ms": metric(norm["op_p50_ms"], "ms"),
                "op_p90_ms": metric(norm["op_p90_ms"], "ms"),
                "setup_s": metric(statistics.median(setup_norm), "s"),
                "peak_rss_mb": metric(peak_rss_mb(args.workload), "MB"),
            }
            extra = {
                "ops": len(phase.raw),
                "rounds": phase.rounds,
                "raw_ops_per_s": raw["ops_per_s"],
                "raw_op_p50_ms": raw["op_p50_ms"],
                "raw_op_p90_ms": raw["op_p90_ms"],
                "raw_setup_s": statistics.median(setup_raw),
            }
            attempted = len(phase.raw)
        controls = load.controls()
    finally:
        load.close()

    for error in phase.errors:
        print(f"# ERROR {error}", file=sys.stderr)
    for problem in phase.problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    for name, ok in controls:
        if not ok:
            print(f"# FAIL negative control not rejected: {name}", file=sys.stderr)
    extra["controls"] = {name: ok for name, ok in controls}
    extra["ref_kernel_ms"] = {
        "n": len(ref_times),
        "median": statistics.median(ref_times) * 1e3,
        "min": min(ref_times) * 1e3,
        "max": max(ref_times) * 1e3,
    }
    extra["ref_kernel_s"] = ref_times
    extra["bench_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# raw " + json.dumps(extra, sort_keys=True))
    correct = not phase.problems and all(ok for _, ok in controls)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": phase.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
