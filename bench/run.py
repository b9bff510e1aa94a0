"""stringalg benchmark: one workload per invocation.

    python3 bench/run.py --workload smith --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
  smith      modified_smith on the criterion-3 matrices (stream seed 42)
  decompose  decompose_general on criterion-5 automorphisms (stream seed 11)
  cli        stringalg.cli.run over all 11 subcommands (stream seed 7)

--seed shuffles the order of the ops; --stream-seed picks the input stream
(the reference seed by default, or the holdout seed pinned next to it).
With --trace 0 the run reports the end-to-end metrics: setup_s (median of
five set-ups, each timed from process start to the first timed op),
ops_per_s, latency_p50_ms, latency_p90_ms and peak_rss_mb; fail_ratio is
printed and carried as failed/attempted in the result line.  Times are
corrected for the host's speed (hostclock.py); the raw wall-time figures are
printed next to them.  With --trace 1 it reports the per-layer metrics of
one traced pass, the hot layer and the tracing overhead, and writes the
spans to out/.  Every op's output is checked against the goldens pinned in
goldens/.  The last line of standard output is the JSON result.

The reference configuration is pure-Python int arithmetic; the gmpy2 flag in
the environment line says whether gmpy2 was importable, and numbers taken
with it must be reported apart.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("smith", "decompose", "cli")
SETUPS = 5             # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ops_per_s"):
        return "1/s"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def spawn(argv):
    """Start a worker and wait for its READY line; returns (process, set-up
    wall time, set-up time corrected to the reference host speed)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    ready = time.perf_counter() - start
    if len(line) != 2 or line[0] != "READY":
        proc.stdout.close()
        proc.wait(timeout=WORKER_TIMEOUT_S)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready, ready * float(line[1])


def finish(proc):
    """Wait for a worker; returns its last stdout line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(args):
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.stream_seed is not None:
        worker_args += ["--stream-seed", str(args.stream_seed)]
    setups, raw_setups = [], []
    # a traced run reports no setup_s: it sets up once
    for _ in range(0 if args.trace else SETUPS - 1):
        proc, ready, corrected = spawn(worker_args + ["--setup-only"])
        finish(proc)
        raw_setups.append(ready)
        setups.append(corrected)
    if args.trace:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        worker_args += ["--spans", os.path.join(BENCH, "out", f"{args.workload}.spans")]
    proc, ready, corrected = spawn(worker_args)
    try:
        record = json.loads(finish(proc))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    raw_setups.append(ready)
    setups.append(corrected)
    record["setup_s"] = statistics.median(setups)
    record.setdefault("raw", {})["setup_s"] = statistics.median(raw_setups)
    return record


def report(args, record):
    """Print the human-readable report; returns the result line's metrics."""
    env = {"commit": commit(), "python": platform.python_version(),
           "gmpy2": importlib.util.find_spec("gmpy2") is not None,
           "nproc": os.cpu_count(), "seed": args.seed,
           "stream_seed": record["stream_seed"], "items": record["items"],
           "index_range": f"0..{record['items'] - 1}",
           "load": "closed loop, 1 process, 1 thread"}
    record["env"] = env
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    w = args.workload
    fail_ratio = record["failed"] / record["attempted"]
    print(f"{w} fail_ratio = {fail_ratio:.4g} ({record['failed']} of "
          f"{record['attempted']} ops did not match their goldens)")
    if args.trace:
        metrics = record["per_layer"]
        for name in sorted(metrics):
            print(f"{w} {name} = {metrics[name]:.6g} {unit_of(name)}")
        print(f"{w} hot layer by self time: {record['hot_layer']} "
              f"({metrics[record['hot_layer'] + '.self_share']:.1f}% of op time)")
        print(f"{w} tracing overhead: untraced "
              f"{metrics['trace.untraced_ops_per_s']:.4g} ops/s against traced "
              f"{metrics['trace.traced_ops_per_s']:.4g} ops/s")
        return {name: {"value": value, "unit": unit_of(name)}
                for name, value in metrics.items()}
    notes = {"setup_s": f"median of {SETUPS} set-ups",
             "ops_per_s": f"{record['samples']} ops over {record['op_seconds']:.2f} s "
                          "of median op time",
             "latency_p50_ms": f"{record['samples']} per-op medians of "
                               f"{record['attempted']} samples in {record['rounds']} "
                               f"rounds, {record['repeated']} ops repeated",
             "latency_p90_ms": f"{record['samples']} per-op medians, "
                               f"{record['beyond_p90']} beyond p90",
             "peak_rss_mb": "ru_maxrss of the measuring process"}
    for name, unit in END_TO_END:
        raw = record["raw"].get(name)
        raw = "" if raw is None else f"; raw {raw:.6g}"
        print(f"{w} {name} = {record[name]:.6g} {unit} ({notes[name]}{raw})")
    return {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles the op order")
    parser.add_argument("--seconds", type=int, default=10,
                        help="op time to measure at least (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stream-seed", type=int,
                        help="input stream; default the workload's reference seed")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
