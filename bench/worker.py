"""One benchmark process: set up a workload, then measure it.

Set-up is importing stringalg from the checkout's src/, generating the
inputs and a warm-up (the first op of each group).  The process then prints
`READY` and the set-up's host-speed scale; the orchestrator (run.py) times
process start to that line.  Unless --setup-only is given, the worker goes
on to measure and prints one JSON record as its last line.

Load is one caller in a closed loop: the next op starts when the previous
one has returned.  The op list is run in rounds, each in an order shuffled
by --seed (see measure()).  Latencies are corrected for the host's speed
(see hostclock.py); the raw figures are kept in the record next to them.
Outputs are checked against the pinned goldens after each round, outside
the timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

from hostclock import HostClock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(BENCH, "goldens")

P_HIGH = 90          # the high percentile reported
MIN_BEYOND = 10      # ops required above it
MIN_ROUNDS = 3       # samples per repeatable op; its latency is their median
REPEAT_MAX_S = 1.0   # ops slower than this run once per measurement
PASS_BUDGET_S = 110  # no round starts after this much wall time
HD_STEPS = 20000     # integration points for the Harrell-Davis weights

FAILED = object()


def harrell_davis(samples, p):
    """Harrell-Davis estimate of the p-th percentile: the mean of the order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) mass of each
    interval [(i-1)/n, i/n], with q = p/100.  Unlike a single order
    statistic it moves smoothly when samples near the percentile trade
    places, which matters for a few hundred unlike ops."""
    ordered = sorted(samples)
    n = len(ordered)
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = max(1, HD_STEPS // n)
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        mass = 0.0
        for k in range(steps):
            x = (i * steps + k + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass * h)
    total = math.fsum(weights)
    return math.fsum(w * v for w, v in zip(weights, ordered)) / total


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, -(-p * n // 100))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_program():
    """Import stringalg from the checkout, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "stringalg", "__init__.py")):
        raise SystemExit(f"benchmark: no stringalg package under {SRC}")
    sys.path.insert(0, SRC)
    import stringalg
    if os.path.dirname(os.path.dirname(os.path.abspath(stringalg.__file__))) != SRC:
        raise SystemExit(f"benchmark: stringalg imported from {stringalg.__file__}")
    return stringalg


def load_goldens(workload, stream_seed):
    path = os.path.join(GOLDENS, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if str(stream_seed) not in pinned:
        raise SystemExit(f"benchmark: no goldens for {workload} stream seed "
                         f"{stream_seed}; pinned: {', '.join(sorted(pinned))}")
    return pinned[str(stream_seed)]


def run_pass(workload, ops, order):
    """One closed-loop pass over the ops; returns ((start, end) per op,
    results)."""
    gc.collect()
    clock = time.perf_counter
    intervals, results = [], []
    for i in order:
        arg = workload.prepare(ops[i].payload)
        start = clock()
        try:
            result = workload.call(arg)
        except Exception:  # a raising op counts as failed; keep measuring
            result = FAILED
            traceback.print_exc(file=sys.stderr)
        intervals.append((start, clock()))
        results.append((i, result))
    return intervals, results


def render(workload, result):
    """Pinned text of a result, or None where the op raised or its output
    cannot be rendered."""
    if result is FAILED:
        return None
    try:
        return workload.render(result)
    except Exception:  # a malformed output counts as failed
        traceback.print_exc(file=sys.stderr)
        return None


def count_failures(workload, results, goldens):
    failures = 0
    for i, result in results:
        text = render(workload, result)
        if text is None or digest(text) != goldens[i]:
            failures += 1
    return failures


def warm_up(workload, ops):
    """Run the first op of each group; one that raises fails again, and is
    counted, when measured."""
    seen = set()
    for op in ops:
        if op.group not in seen:
            seen.add(op.group)
            run_pass(workload, ops, [op.index])


def latency_record(latencies):
    n = len(latencies)
    total = sum(latencies)
    return {"samples": n, "op_seconds": total, "ops_per_s": n / total,
            "latency_p50_ms": harrell_davis(latencies, 50) * 1e3,
            "latency_p90_ms": harrell_davis(latencies, P_HIGH) * 1e3,
            "beyond_p90": beyond(n, P_HIGH)}


def measure(workload, ops, rng, goldens, seconds, host):
    """Untraced rounds until every repeatable op has MIN_ROUNDS samples and
    `seconds` of op time are measured.  Round one runs every op; later
    rounds rerun, in a fresh order, the ops that took at most REPEAT_MAX_S.
    Each op's latency is the median of its host-corrected samples; the
    same figures from raw wall time are kept under "raw"."""
    wall = time.perf_counter()
    corrected = [[] for _ in ops]
    raw = [[] for _ in ops]
    subset = list(range(len(ops)))
    failures = rounds = 0
    while True:
        rng.shuffle(subset)
        intervals, results = run_pass(workload, ops, subset)
        failures += count_failures(workload, results, goldens)
        for (i, _), (start, end) in zip(results, intervals):
            raw[i].append(end - start)
            corrected[i].append(host.corrected(start, end))
        rounds += 1
        measured = sum(map(sum, raw))
        pass_s = intervals[-1][1] - intervals[0][0]
        if rounds >= MIN_ROUNDS and measured >= seconds:
            break
        if time.perf_counter() - wall + pass_s > PASS_BUDGET_S:
            break
        if rounds == 1:
            subset = [i for i in subset if raw[i][0] <= REPEAT_MAX_S]
    record = latency_record([statistics.median(s) for s in corrected])
    record.update(attempted=sum(map(len, raw)), failed=failures, rounds=rounds,
                  repeated=len(subset),
                  raw=latency_record([statistics.median(s) for s in raw]))
    return record


def traced(workload, ops, order, goldens, spans_path):
    """One untraced pass, then the same pass traced; per-layer metrics come
    from the traced one, the overhead from comparing the two."""
    from spans import Tracer, layer_metrics

    def run(tracer=None):
        # the tracer takes each probe's time out of the span it interrupted
        host = HostClock(tracer and tracer.exclude)
        if tracer is not None:
            tracer.install()
        host.start()
        try:
            intervals, results = run_pass(workload, ops, order)
        finally:
            host.stop()
            if tracer is not None:
                tracer.uninstall()
        record = latency_record([host.corrected(s, e) for s, e in intervals])
        return record, sum(host.net(s, e) for s, e in intervals), results

    plain, _, results = run()
    failures = count_failures(workload, results, goldens)
    tracer = Tracer()
    with_spans, op_seconds, results = run(tracer)
    failures += count_failures(workload, results, goldens)
    metrics, hot = layer_metrics(tracer, op_seconds)
    metrics["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    metrics["trace.traced_ops_per_s"] = with_spans["ops_per_s"]
    metrics["trace.overhead_ratio"] = plain["ops_per_s"] / with_spans["ops_per_s"]
    if spans_path:
        tracer.write(spans_path)
    return {"attempted": 2 * len(ops), "failed": failures, "per_layer": metrics,
            "hot_layer": hot}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stream-seed", type=int)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    host = HostClock()
    host.start()
    workdir = None
    try:
        import_program()
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        stream_seed = workload.ref_seed if args.stream_seed is None else args.stream_seed
        goldens = load_goldens(workload.name, stream_seed)
        workdir = os.path.join(BENCH, ".work", str(os.getpid()))
        os.makedirs(workdir)
        ops = workload.build(stream_seed, workdir)
        if len(ops) != len(goldens):
            raise SystemExit(f"benchmark: {len(ops)} ops but {len(goldens)} goldens")
        if beyond(len(ops), P_HIGH) < MIN_BEYOND:
            raise SystemExit(f"benchmark: {len(ops)} ops leave fewer than "
                             f"{MIN_BEYOND} beyond p{P_HIGH}")
        warm_up(workload, ops)
        # the orchestrator scales this set-up's wall time by the probe ratio
        host.stop()
        print(f"READY {host.scale()!r}", flush=True)
        if args.setup_only:
            return 0
        rng = random.Random(args.seed)
        if args.trace:
            order = list(range(len(ops)))
            rng.shuffle(order)
            record = traced(workload, ops, order, goldens, args.spans)
        else:
            host = HostClock()
            host.start()
            record = measure(workload, ops, rng, goldens, args.seconds, host)
        record.update(
            items=len(ops), stream_seed=stream_seed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        print(json.dumps(record), flush=True)
    finally:
        host.stop()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:  # another worker still has its directory there
                pass
    return 0

if __name__ == "__main__":
    sys.exit(main())
