"""Alternating parent/change pairs of the benchmark, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr 7 --base HEAD~1

The parent side is the committed tree of --base, extracted with `git
archive`; the change side is a snapshot of the working tree this script
lives in: its tracked files with their uncommitted edits and its untracked
files that are not ignored.  Both are unpacked into one temporary directory
that is removed at the end (an archive, not a git worktree, so an
interrupted run leaves nothing in .git), so neither side starts with the
bytecode of an earlier run.  For pair i
(seed i, i = 1..PAIRS) and every workload of BENCHMARK.json, each side
runs its benchmark command from its own tree, S being its run_seconds,

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

with odd pairs running the parent first and even pairs the change first.
The output file, at the root of the working tree, holds per workload and
end-to-end metric both sides' medians, quartiles and every run's value,
the number of pairs the change won (ties count for neither), each run's
correct/attempted/failed counts, the seeds, the run length and the
machine, with the PYTHONDONTWRITEBYTECODE setting the runs inherit.

    python3 tools/bench_pairs.py --pr 30 --base HEAD~1 --workloads operad sweep

runs only the named workloads of BENCHMARK.json, in its order, for quick
looks while a change is being made; the file it writes then holds those
workloads alone, so a file that supports a claim comes from a run of all.

    python3 tools/bench_pairs.py --pr 11 --base HEAD~1 --tests NODEID ...

times the given pytest node ids instead, each alone in its own pytest
process on each side (TEST_PAIRS alternating pairs, odd pairs the parent
first), as the junit-xml time of the test (set-up, call and tear-down;
collection and start-up excluded), and writes both sides' medians,
quartiles and runs under "tests" in BENCH_<pr>.json, keeping the
benchmark results already there.  A benchmark run keeps the "tests"
entry of the file it replaces.  Only the standard library is used.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fewer than ten alternating pairs cannot support a claimed gain
PAIRS = 10
# tests timed alone support no claim of their own; five pairs show a trend
TEST_PAIRS = 5


def git(*args):
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev, dest):
    """The committed tree of `rev`, unpacked under dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    tree = Path(dest) / "tree"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def snapshot(dest):
    """The working tree as it stands, copied under dest: tracked files with
    their uncommitted edits, and untracked files that are not ignored."""
    tree = Path(dest) / "tree"
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.split("\0"):
        source = ROOT / name
        # a tracked file deleted in the working tree is left out
        if name and source.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def side_trees(base_rev, tmp):
    return {"parent": extract(base_rev, Path(tmp) / "parent"), "change": snapshot(Path(tmp) / "change")}


def run_once(tree, command, workload, seed, seconds):
    """The result object of one benchmark run (its last stdout line)."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1])


def time_test(tree, nodeid, tmp):
    """Seconds one pytest node id takes alone in `tree`, from its junit xml."""
    report = Path(tmp) / "junit.xml"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", nodeid]
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{nodeid} in {tree} exited {proc.returncode}: {proc.stdout[-2000:]}")
    cases = ET.parse(report).getroot().iter("testcase")
    return sum(float(case.get("time")) for case in cases)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "processor": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        # the runs inherit it: unset, they write bytecode and reuse it; set,
        # every cli invocation recompiles the package, so cli figures from
        # the two settings cannot be compared
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
    }


def change_label():
    head_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return f"working tree at {head_rev}" + (" with uncommitted changes" if dirty else "")


def time_tests(nodeids, base_rev):
    """The "tests" entry: each node id timed alone, TEST_PAIRS alternating pairs."""
    runs = {t: {"parent": [], "change": []} for t in nodeids}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = side_trees(base_rev, tmp)
        for pair in range(1, TEST_PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for t in nodeids:
                for side in order:
                    seconds = time_test(trees[side], t, tmp)
                    runs[t][side].append(seconds)
                    print(f"# pair {pair} {t} {side}: {seconds:.3f} s", file=sys.stderr)
    return {
        "parent": base_rev,
        "change": change_label(),
        "pairs": TEST_PAIRS,
        "order": "odd pairs run the parent first, even pairs the change first",
        "unit": "s",
        "what": "junit-xml time of the node id run alone: set-up, call and tear-down",
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": machine(),
        "timings": {
            t: {
                "parent": summary(sides["parent"]),
                "change": summary(sides["change"]),
                "change_wins": sum(c < p for p, c in zip(sides["parent"], sides["change"])),
            }
            for t, sides in runs.items()
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, type=int, help="the N of BENCH_N.json")
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--tests", nargs="+", metavar="NODEID", help="time these pytest node ids instead of the benchmark")
    ap.add_argument("--workloads", nargs="+", metavar="W", help="run only these workloads (default: all of BENCHMARK.json)")
    args = ap.parse_args(argv)
    if args.tests and args.workloads:
        ap.error("--workloads selects benchmark workloads, not tests")

    path = ROOT / f"BENCH_{args.pr}.json"
    previous = json.loads(path.read_text()) if path.exists() else {}
    base_rev = git("rev-parse", args.base)
    if args.tests:
        out = dict(previous, tests=time_tests(args.tests, base_rev))
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(path)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        unknown = sorted(set(args.workloads) - set(workloads))
        if unknown:
            ap.error(f"no workload {', '.join(unknown)} in BENCHMARK.json: {', '.join(workloads)}")
        workloads = [w for w in workloads if w in args.workloads]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = side_trees(base_rev, tmp)
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for w in workloads:
                for side in order:
                    result = run_once(trees[side], spec["command"], w, seed, seconds)
                    runs[w][side].append(result)
                    print(f"# pair {seed} {w} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)

    out = {
        "pr": args.pr,
        "parent": base_rev,
        "change": change_label(),
        "command": spec["command"] + ["--workload", "W", "--seed", "i", "--seconds", str(seconds), "--trace", "0"],
        "seeds": list(range(1, PAIRS + 1)),
        "seconds": seconds,
        "order": "odd seeds run the parent first, even seeds the change first",
        "machine": machine(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "workloads": {},
    }
    for w in workloads:
        sides = runs[w]
        entry = {
            side: {key: [r[key] for r in sides[side]] for key in ("correct", "attempted", "failed")}
            for side in sides
        }
        metrics = {}
        for name, direction in better.items():
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            sign = 1 if direction == "higher" else -1
            metrics[name] = {
                "unit": sides["parent"][0]["metrics"][name]["unit"],
                "better": direction,
                "parent": summary(parent),
                "change": summary(change),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            }
        entry["metrics"] = metrics
        out["workloads"][w] = entry
    if "tests" in previous:
        out["tests"] = previous["tests"]
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
