"""Workload `cli`: cold `python -m chainops.cli` invocations.

One operation is one invocation, run to completion before the next one
starts (a closed loop with one client).  A round is seven invocations:

  boundary   c * (the 12-entry golden bf generator) in S^bf(5), JSON out
  boundary   of that output, fed back as an expression: must be zero
  tr         c * a nondegenerate 2-simplex of N(ESigma_3)
  compose    c1 * (1,2,1,2), c2 * (2,1,2) and (1) in S^bf(2), S^bf(2), S^bf(1)
  bf-action  c * (1,2,1) on Delta^2
  eval-cochain  x cup x over F_2 on the 6-vertex RP^2, x a fresh integer
             lift of a cocycle for the generator of H^1(RP^2; F_2)
  verify     --suite golden-boundaries

The checks need no chainops: exit code 0 everywhere; the first boundary
must equal c times the golden caesura sign table; the second must be zero;
degrees must be the expected ones; the RP^2 output must pair to 1 with
the fundamental class; the golden-boundaries suite must report ok.  Every
input but the last gets fresh coefficients each round, on fixed generators,
so every round does the same work; the suite takes no input, and a cold
process has no cache to reuse.

In traced runs the invocations go through cli_child.py, which records
when the interpreter reached it, when chainops.cli was imported and when
main returned, and (after start_trace) counts the layers with layers.py.

Set-up runs one cold `python -c "import chainops.cli"`, what every
invocation pays before its command runs, and builds the RP^2 input; so
`setup_s` follows the interpreter's start and the CLI's import.  The
import runs in a process of its own: Linux carries a process's peak
memory across fork and exec into the child's, so this process stays
smaller than a CLI process, and `peak_rss_mb` (the largest child's
peak) reads the CLI's own.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spaces import RP2_TRIANGLES, Space, lift_mod2

GOLDEN = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)
GOLDEN_SIGNS = (1, -1, 1, -1, 1, -1, 1, 1, 0, -1, -1, 1)
TIMEOUT_S = 60
TR_SIMPLEX = "1 2 3; 2 3 1; 1 3 2"
COMPOSE_OUTER = "(1,2,1,2)"
COMPOSE_INNER = "(2,1,2)"


def golden_boundary(c):
    """c * d(GOLDEN) from the golden sign table, degenerate faces dropped."""
    out = {}
    for j, s in enumerate(GOLDEN_SIGNS):
        face = GOLDEN[:j] + GOLDEN[j + 1:]
        if s and all(a != b for a, b in zip(face, face[1:])):
            out[face] = out.get(face, 0) + s * c
    return {g: v for g, v in out.items() if v}


def terms_of(data):
    return {tuple(t["gen"]): t["coeff"] for t in data["terms"]}


def expression(terms):
    """A CLI element expression: c1*(g1) + c2*(g2) - c3*(g3) ..."""
    out = ""
    for g, c in sorted(terms.items()):
        sign = "-" if c < 0 else ("+" if out else "")
        out += f" {sign} {abs(c)}*({','.join(map(str, g))})"
    return out.strip()


class Load:
    def __init__(self, seed, root, trace):
        self.seed = seed
        self.root = Path(root)
        self.trace = bool(trace)
        self.traced = False
        self.tracer = None
        self.work = self.root / ".perfbench_run" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, "-c", "import chainops.cli"], check=True,
                       capture_output=True, env=self.env, cwd=self.root, timeout=TIMEOUT_S)
        self.rp2 = Space(RP2_TRIANGLES)
        self.x_mod2 = self.rp2.h1_generator_mod2()
        self.faces = self.work / "rp2.json"
        self.faces.write_text(json.dumps(self.rp2.table_data))
        self.timings = []  # (interp, import, main) seconds of untraced children
        self.pending = []
        self.last = None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    # -- invocations -----------------------------------------------------------

    def invoke(self, argv):
        """Run one CLI command; returns (exit code, stdout, stderr)."""
        if not self.trace:
            proc = subprocess.run(
                [sys.executable, "-m", "chainops.cli", *argv],
                capture_output=True, text=True, env=self.env, cwd=self.root,
                timeout=TIMEOUT_S,
            )
            return proc.returncode, proc.stdout, proc.stderr
        stamp = self.work / "child.json"
        mode = "trace" if self.traced else "time"
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = str(Path(__file__).with_name("cli_child.py"))
        proc = subprocess.run(
            [sys.executable, child, mode, str(stamp), *argv],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=TIMEOUT_S,
        )
        data = json.loads(stamp.read_text())
        if self.traced:
            self.tracer.merge(data["trace"])
        else:
            self.timings.append((
                data["start"] - spawned,
                data["import"] - data["start"],
                data["main"] - data["import"],
            ))
        return proc.returncode, proc.stdout, proc.stderr

    def round(self, r):
        rng = random.Random(self.seed * 1_000_003 + r)
        out = {}
        ops = []
        checks = []

        def op(key, argv_fn):
            """Queue one invocation; its arguments are built when it runs, so
            they may use the output of an earlier invocation of the round."""

            def run():
                out[key] = self.invoke(argv_fn())
                return out[key]

            ops.append(run)

        c = rng.choice((-1, 1)) * rng.randint(2, 10**6)
        op("golden", lambda: ["boundary", "--flavor", "bf", "--n", "5", "--format", "json", "--",
                              f"{c}*({','.join(map(str, GOLDEN))})"])
        checks.append(("golden", lambda d: terms_of(d) == golden_boundary(c)))
        op("dd", lambda: ["boundary", "--flavor", "bf", "--n", "5", "--format", "json", "--",
                          expression(terms_of(json.loads(out["golden"][1])))])
        checks.append(("dd", lambda d: d["terms"] == []))

        ctr = rng.randint(2, 10**6)
        op("tr", lambda: ["tr", "--flavor", "bf", "--n", "3", "--format", "json",
                          f"{ctr}*({TR_SIMPLEX})"])
        checks.append(("tr", lambda d: d["degree"] == 2))

        c1, c2 = rng.randint(2, 10**6), rng.randint(2, 10**6)
        op("compose", lambda: ["compose", "--flavor", "bf", "--arities", "2,2,1",
                               "--format", "json",
                               f"{c1}*{COMPOSE_OUTER}", f"{c2}*{COMPOSE_INNER}", "(1)"])
        checks.append(("compose", lambda d: d["degree"] == 3))

        cbf = rng.randint(2, 10**6)
        op("bf", lambda: ["bf-action", "--n", "2", "--m", "2", "--format", "json",
                          f"{cbf}*(1,2,1)"])
        checks.append(("bf", lambda d: d["degree"] == 3))

        cochain = self.work / f"x{r}.json"
        values = lift_mod2(rng, self.rp2, 1, self.x_mod2)
        cochain.write_text(json.dumps({"degree": 1, "values": values}))

        def eval_argv():
            return ["eval-cochain", "--n", "2", "--x", "(1,2)", "--ring", "F2",
                    "--faces", str(self.faces), "--cochains", str(cochain), str(cochain)]

        op("rp2", eval_argv)
        checks.append(("rp2", lambda d: d["degree"] == 2
                       and self.rp2.pair_fundamental_mod2(d["values"]) == 1))

        op("verify", lambda: ["verify", "--suite", "golden-boundaries", "--format", "json"])
        checks.append(("verify", lambda d: d["ok"] is True and all(c["ok"] for c in d["checks"])))
        self.pending = checks
        return ops

    # -- oracles ---------------------------------------------------------------

    def check(self, r, outputs):
        self.last = outputs
        return self.check_outputs(outputs)

    def check_outputs(self, outputs):
        problems = []
        for (name, ok), (code, stdout, stderr) in zip(self.pending, outputs):
            if code != 0:
                problems.append(f"{name}: exit code {code}: {stderr.strip()}")
                continue
            try:
                passed = ok(json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                passed = False
                stderr = f"unreadable output: {exc}"
            if not passed:
                problems.append(f"{name}: wrong output {stdout.strip()[:200]} {stderr.strip()}")
        return problems

    def controls(self):
        """A corrupted golden boundary and a corrupted RP^2 cup square must be
        rejected."""
        names = [name for name, _ in self.pending]
        results = []
        for name in ("golden", "rp2"):
            outputs = list(self.last)
            i = names.index(name)
            code, stdout, stderr = outputs[i]
            data = json.loads(stdout)
            if name == "golden":
                data["terms"][0]["coeff"] += 1
            else:
                some = next(iter(data["values"]))
                data["values"][some] = (data["values"][some] + 1) % 2
            outputs[i] = (code, json.dumps(data), stderr)
            results.append((f"corrupted {name} CLI output", bool(self.check_outputs(outputs))))
        return results

    # -- tracing ---------------------------------------------------------------

    def start_trace(self, tracer):
        """Trace the CLI processes of the round just built (in the children)."""
        self.tracer = tracer
        self.traced = True

    def layer_metrics(self, tracer, factor):
        medians = {
            name: statistics.median(t[i] for t in self.timings) * factor * 1e3
            for i, name in enumerate(("interp_ms", "import_ms", "main_ms"))
        }
        return layers.metrics(tracer, factor, medians)
