"""CLI-level benchmark for polywalk.

    python3 perfbench/run.py [--workload construct|search|averages|all] \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs installing.  The
operations of a workload are generated from the seed (workloads.py).  Each
pass runs them once, in order, in a fresh Python process (worker.py).  A
run makes at least two passes, and more until `--seconds` have gone by;
set-up-only processes top set-up up to three samples.
Every output is checked by checks.py, which does not import polywalk.
The last line of stdout is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced pass with `--trace 1`.
Without `--workload`, or with `all`, the three workloads run in turn and
each prints its own result line.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
MIN_PASSES = 2
SETUP_SAMPLES = 3


class Runner:
    """Starts worker processes, each bounded by the run's deadline."""

    def __init__(self):
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def worker(self, argvs, validate=False, run=True, trace=False) -> dict:
        request = {"src": str(SRC), "ops": argvs, "validate": validate, "run": run,
                   "trace": trace}
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise RuntimeError("run deadline passed")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(request),
            capture_output=True, text=True, timeout=remaining, env=self.env, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
        return json.loads(proc.stdout)

    def run_cli(self, argvs) -> list[tuple[int, str]]:
        return [(r["rc"], r["out"]) for r in self.worker(argvs)["results"]]


def harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics, weight i being the Beta((n+1)/2, (n+1)/2) mass of
    [i/n, (i+1)/n].  With a few dozen latencies from operations of very
    different sizes, the sample median is one latency of one operation and
    carries all of its noise; this estimate averages its neighbours too."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    cells = 200  # midpoint rule per interval; the density is smooth
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / cells) / n for k in range(cells))
        weights.append(sum(math.exp(log_norm + (a - 1) * (math.log(t) + math.log1p(-t)))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def points_covered(op: dict, out: str) -> int:
    """Orbit points an answer covers: the smallest n of each found target,
    N for an average, and for a certificate the orbit degree plus one (the
    number of orbit points that determine the certified orbit)."""
    if op["kind"] == "search":
        return sum(n for n, _, _ in checks.parse_search_report(out).values())
    if op["kind"] == "construct":
        orbit = checks.parse_certificate(out).get("orbit") or [[]]
        return 1 + max(checks.poly_degree(p) for p in orbit)
    return op["points"]


def score_pass(ops, reply, tally) -> dict:
    """Check every output of one pass; return its timings."""
    latencies = []
    covered = 0
    for op, res in zip(ops, reply["results"]):
        errors = checks.check_operation(op, res["rc"], res["out"])
        tally["attempted"] += 1
        if res["rc"] != 0 or (errors and op.get("known_fault")):
            tally["failed"] += 1
        elif errors:
            tally["correct"] = False
        status = "ok" if not errors else "; ".join(errors)[:300]
        if res["rc"] != 0 and res["err"].strip():
            status += " | " + res["err"].strip().splitlines()[-1][:200]
        print(f"  {op['name']}: {res['s'] * 1000:.1f} ms  {status}", file=sys.stderr)
        latencies.append(res["s"])
        covered += points_covered(op, res["out"])
    for error in reply.get("validate_errors", []):
        tally["correct"] = False
        print(f"  validate-only failed: {error}", file=sys.stderr)
    wall = sum(latencies)
    return {"wall_s": wall, "op_s": latencies,
            "points_per_s": covered / wall, "rss_mib": reply["peak_rss_kib"] / 1024,
            "setup_s": reply["import_s"] + reply["validate_s"]}


def measure(runner, ops, seconds, tally) -> dict:
    argvs = [op["argv"] for op in ops]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        print(f"pass {len(passes) + 1}", file=sys.stderr)
        passes.append(score_pass(ops, runner.worker(argvs, validate=True), tally))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        reply = runner.worker(argvs, validate=True, run=False)
        setups.append(reply["import_s"] + reply["validate_s"])
    med = lambda key: statistics.median(p[key] for p in passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (med("wall_s"), "s"),
        "op_p50_ms": (harrell_davis_median(s for p in passes for s in p["op_s"]) * 1000, "ms"),
        "orbit_points_per_s": (med("points_per_s"), "1/s"),
        "peak_rss_mib": (med("rss_mib"), "MiB"),
    }


def measure_traced(runner, ops, tally) -> dict:
    argvs = [op["argv"] for op in ops]
    print("untraced pass", file=sys.stderr)
    plain = score_pass(ops, runner.worker(argvs), tally)
    print("traced pass", file=sys.stderr)
    reply = runner.worker(argvs, trace=True)
    traced = score_pass(ops, reply, tally)
    metrics = {key: tuple(value) for key, value in reply["trace"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: its result object, or RuntimeError."""
    runner = Runner()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = workloads.build(name, seed, workdir, runner.run_cli)
        print(f"{name}: {len(ops)} operations", file=sys.stderr)
        tally = {"attempted": 0, "failed": 0, "correct": True}
        if trace:
            metrics = measure_traced(runner, ops, tally)
        else:
            metrics = measure(runner, ops, seconds, tally)
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        raise RuntimeError(str(exc)) from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all three in turn (one result line each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polywalk" / "cli.py").is_file():
        print(f"error: no polywalk sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
