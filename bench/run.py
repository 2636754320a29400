"""betahole benchmark: drives the public CLI in-process on seeded workloads.

    python3 bench/run.py                         # all workloads, seed 1
    python3 bench/run.py --workload queries --seed 7 --seconds 30
    python3 bench/run.py --workload plateaus --trace 1

Run from the root of a checkout; the package is imported from ``src``.
Each workload runs in its own fresh interpreter (``worker.py``) as a
closed loop with one client and one thread.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs a fixed number
of rounds twice, in two more fresh interpreters, once untraced and once
with every layer traced, and reports the per-layer metrics.  Every output
is checked (checks.py); the last line of stdout is one JSON object, and
the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
WORKER_TIMEOUT_S = 170
PERCENTILES = (50, 90)
# seconds of traced-run budget per round: the untraced and the traced pass
# of a round together take about this long on a 2-core x86 container
TRACE_SECONDS_PER_ROUND = {"plateaus": 5.0, "staircase": 8.0, "queries": 1.5}


def child_env():
    """Environment for every child: the package from this checkout, fixed
    string hashing, and no BETAHOLE_PRECISION (the CLI would change the
    default tolerance of the whole process)."""
    env = {k: v for k, v in os.environ.items() if k not in ("BETAHOLE_PRECISION", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv):
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("child %s failed with exit code %d:\n%s" % (argv[:3], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout.splitlines()[-1]


def worker(workload, seed, mode, seconds=0, rounds=1):
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds), "--rounds", str(rounds)]
    return json.loads(run_child(argv))


def highest_percentile(n, ladder=PERCENTILES):
    """The highest percentile of the ladder with at least ten of n samples beyond it."""
    ok = [p for p in ladder if n * (100 - Fraction(str(p))) / 100 >= 10]
    return ok[-1] if ok else None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def trace_rounds(workload, seconds):
    return max(1, int(seconds / TRACE_SECONDS_PER_ROUND[workload]))


def end_to_end(workload, seed, seconds):
    res = worker(workload, seed, "timed", seconds=seconds)
    setup = res["setup_s"]
    lat = res["latencies_s"]
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / res["timed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    report = [
        "setup_s             %.4f s (median of %d fresh interpreters, spread over the run)" % (
            metrics["setup_s"][0], len(setup)),
        "ops_per_s           %.4f 1/s (%d operations in %.2f s of operation time)" % (
            metrics["ops_per_s"][0], n, res["timed_s"]),
    ]
    top = highest_percentile(n)
    for p in PERCENTILES:
        if p == 50 or top is not None and p <= top:
            value = statistics.median(lat) if p == 50 else percentile(lat, p)
            report.append("%-19s %.3f ms (n=%d)" % ("latency_p%g_ms" % p, value * 1000, n))
    report += [
        "error_rate          %.4f (%d failed of %d attempted)" % (
            res["failed"] / res["attempted"], res["failed"], res["attempted"]),
        "peak_rss_mb         %.2f MB" % res["rss_mb"],
        "enclosure_width_max %s" % (res["width_max"],),
    ]
    return res, metrics, report


def per_layer(workload, seed, seconds):
    rounds = trace_rounds(workload, seconds)
    ref = worker(workload, seed, "reference", rounds=rounds)
    res = worker(workload, seed, "traced", rounds=rounds)
    if ref["digest"] != res["digest"]:
        sys.exit("traced and untraced passes ran different operations")
    values = dict(res["trace"])
    values["trace.overhead_ratio"] = res["timed_s"] / ref["timed_s"]
    values["enclosure_width_max"] = res["width_max"] or 0.0
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
    wall = res["timed_s"]
    self_total = sum(values[layer + ".self_s"] for layer in tracing.LAYERS)
    report = ["traced %d rounds: %d operations, traced wall %.3f s, untraced wall %.3f s, "
              "sum of layer self times %.3f s" % (rounds, len(res["latencies_s"]), wall,
                                                  ref["timed_s"], self_total)]
    report += ["%-48s %s %s" % (name, _fmt(v), unit) for name, (v, unit) in metrics.items()]
    res["attempted"] += ref["attempted"]
    res["failed"] += ref["failed"]
    res["failures"] += ref["failures"]
    return res, metrics, report


def _fmt(v):
    return "%d" % v if isinstance(v, int) else "%.6g" % v


def run_workload(workload, seed, seconds, trace):
    res, metrics, report = (per_layer if trace else end_to_end)(workload, seed, seconds)
    print("== %s  seed=%d  seconds=%g  trace=%d" % (workload, seed, seconds, trace))
    print("python %s, nproc %d, closed loop, 1 client, 1 thread" % (
        platform.python_version(), len(os.sched_getaffinity(0))))
    print("inputs digest %s (warm-up %s)" % (res["digest"], res["warmup_digest"]))
    print("inputs %s" % json.dumps(res["properties"], sort_keys=True))
    if res["golden_checked"]:
        print("golden reference matched on %d operations" % res["golden_checked"])
    for line in report:
        print("  " + line)
    for msg in res["failures"]:
        print("FAILED " + msg)
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "betahole", "__init__.py")):
        sys.exit("no betahole package under %s; run from a full checkout" % os.path.join(ROOT, "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    sys.exit(0 if all(ok) else 1)


if __name__ == "__main__":
    main()
