"""One workload in one fresh interpreter; started by ``run.py``.

Each operation is one in-process ``betahole.cli.run(argv)`` call with
stdout and stderr captured, so argument parsing, the computation and the
JSON/CSV formatting are all timed.  One client, one thread, closed loop:
the next operation starts when the previous one has returned.

Modes:
  timed      warm-up round, then whole rounds until the summed operation
             time reaches --seconds; the end-to-end numbers come from here.
             Between rounds, outside the timed spans, it also times
             SETUP_PROBES fresh interpreters importing the package, spread
             evenly over the run, for setup_s
  reference  the first --rounds rounds, untraced
  traced     the same rounds with every layer traced (see tracing.py)
  golden     record the outputs of the first --rounds rounds as the
             reference for this seed (writes golden/<workload>.json)

Every other mode checks each output against golden/<workload>.json and
exits with an error when that file is missing.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")
SETUP_PROBES = 25
PROBE = "import time; t = time.perf_counter(); import betahole, betahole.cli; print(time.perf_counter() - t)"


def setup_probe():
    """Seconds a fresh interpreter takes to import betahole and betahole.cli."""
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def call(cli, op):
    """Run one command; returns (exit code or None if it raised, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(op)
        except Exception as exc:  # the operation fails; the run goes on
            return None, out.getvalue(), repr(exc)
    return code, out.getvalue(), err.getvalue()


def failures(op, code, text, error, golden):
    if code != 0:
        return ["exit code %s: %s" % (code, error.strip()[-200:])]
    found = checks.check(op, text)
    ref = golden.get(" ".join(op))
    if ref is not None:
        found += checks.golden_mismatch(op, text, ref)
    return found


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "reference", "traced", "golden"))
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()

    import betahole
    import betahole.cli as cli

    if not os.path.abspath(betahole.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit("betahole was imported from %s, not from this checkout" % betahole.__file__)

    golden_path = os.path.join(GOLDEN_DIR, args.workload + ".json")
    golden, recorded = {}, {}
    if args.mode != "golden":
        if not os.path.isfile(golden_path):
            sys.exit("no golden reference at %s" % golden_path)
        with open(golden_path) as fh:
            golden = json.load(fh)

    # Each output is checked as soon as its call returns, outside the timed
    # span, and only the verdict is kept: the memory the harness holds does
    # not grow with the number of operations a run completes.
    attempted = failed = 0
    messages = []
    widest = None

    def settle(op, result, timed):
        nonlocal attempted, failed, widest
        code, text, error = result
        attempted += 1
        if args.mode == "golden":
            if timed:
                recorded[" ".join(op)] = text
            return
        found = failures(op, code, text, error, golden)
        if found:
            failed += 1
            if len(messages) < 10:
                messages.append("%s: %s" % (" ".join(op)[:120], "; ".join(found[:3])))
        elif timed:
            for w in checks.widths(op, text):
                widest = w if widest is None else max(widest, w)

    wl = workloads.Workload(args.workload, args.seed)
    for op in wl.warmup:
        settle(op, call(cli, op), timed=False)

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # In a timed run the machine's speed drifts over seconds; probes spread
    # over the run see the same drift as the operations.
    setup = []

    def probe_until(share):
        if args.mode == "timed":
            while len(setup) < 1 + (SETUP_PROBES - 1) * min(share, 1.0):
                setup.append(setup_probe())

    latencies = []
    elapsed = 0.0
    rounds = 0
    for r, rnd in enumerate(wl.rounds()):
        if r > 0 and (elapsed >= args.seconds if args.mode == "timed" else r >= args.rounds):
            break
        probe_until(elapsed / args.seconds if args.seconds else 1.0)
        rounds += 1
        for op in rnd:
            if tracer is not None:
                tracer.op_id = len(latencies)
            t = time.perf_counter()
            result = call(cli, op)
            dt = time.perf_counter() - t
            elapsed += dt
            latencies.append(dt)
            settle(op, result, timed=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_until(1.0)
    trace_metrics = tracer.metrics() if tracer is not None else None
    if args.mode == "golden":
        with open(golden_path, "w") as fh:
            json.dump(recorded, fh, indent=0, sort_keys=True)
            fh.write("\n")
        return

    for op in checks.ANCHORS:
        settle(op, call(cli, op), timed=False)
    # the rounds are regenerated from the seed rather than kept during the run
    timed_ops = [op for rnd in itertools.islice(wl.rounds(), rounds) for op in rnd]
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "latencies_s": latencies,
        "timed_s": elapsed,
        "setup_s": setup,
        "rss_mb": rss_mb,
        "width_max": float(widest) if widest is not None else None,
        "digest": workloads.digest(timed_ops),
        "warmup_digest": workloads.digest(wl.warmup),
        "properties": workloads.properties(timed_ops),
        "golden_checked": sum(" ".join(op) in golden for op in timed_ops),
    }
    if trace_metrics is not None:
        result["trace"] = trace_metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
