"""Check that the host-speed correction does not cancel a change to the
program.

    python3 bench/calibrate.py --workload smith --seconds 60

Each op is run three ways back to back, in a rotating order, while the
host probe (hostclock.py) runs as in a measurement:
  plain    the op as measured;
  double   the op twice, a known 2x extra cost;
  ballast  the op with about a million extra live objects on the heap, a
           larger memory footprint for the probes to share.
Because the three runs of an op are close in time, the host's speed cancels
from their ratios.  For each variant the script prints the median over ops
of its raw latency (wall time without the probes) and of its corrected
latency over the plain op's, and the mean probe duration inside its runs
over that inside the plain runs.  The correction holds if the corrected
ratios match the raw ones (double near 2) and the probe ratios stay near 1.
Only ops of 0.1 to 1 s are run: each holds about two probes or more, so its
scale comes from probes that shared its heap and caches, and the run stays
short.
"""

from __future__ import annotations

import argparse
import bisect
import os
import shutil
import statistics
import sys
import tempfile
import time

import worker
from hostclock import HostClock

VARIANTS = ("plain", "double", "ballast")
BALLAST = 1 << 18   # lists of three ints: about a million live objects
OP_S = (0.1, 1.0)   # the op lengths calibrated


def run_variant(workload, payload, variant):
    """Time one variant of an op; returns (start, end)."""
    args = [workload.prepare(payload) for _ in range(2 if variant == "double" else 1)]
    ballast = [[i, i + 1, i + 2] for i in range(BALLAST)] if variant == "ballast" else None
    start = time.perf_counter()
    for arg in args:
        workload.call(arg)
    end = time.perf_counter()
    del ballast
    return start, end


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=60,
                        help="wall time to spend, at least one pass")
    args = parser.parse_args(argv)
    worker.import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    parent = os.path.join(worker.BENCH, ".work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="calibrate-", dir=parent)
    try:
        ops = workload.build(workload.ref_seed, workdir)
        worker.warm_up(workload, ops)
        intervals, _ = worker.run_pass(workload, ops, range(len(ops)))
        chosen = [i for i, (s, e) in enumerate(intervals) if OP_S[0] <= e - s <= OP_S[1]]
        if not chosen:
            raise SystemExit(f"{workload.name}: no op takes {OP_S[0]} to {OP_S[1]} s")
        host = HostClock()
        runs = {v: {i: [] for i in chosen} for v in VARIANTS}
        host.start()
        wall = time.perf_counter()
        try:
            turn = 0
            while turn == 0 or time.perf_counter() - wall < args.seconds:
                for i in chosen:
                    order = VARIANTS[turn % 3:] + VARIANTS[:turn % 3]
                    turn += 1
                    for variant in order:
                        runs[variant][i].append(run_variant(workload, ops[i].payload, variant))
        finally:
            host.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def probe_mean(variant):
        durations = []
        for spans in runs[variant].values():
            for a, b in spans:
                durations.extend(host.durations[bisect.bisect_left(host.stamps, a):
                                                bisect.bisect_left(host.stamps, b)])
        return statistics.fmean(durations) if durations else float("nan"), len(durations)

    def per_op(variant, fn):
        return {i: statistics.median(fn(s, e) for s, e in spans)
                for i, spans in runs[variant].items()}

    raw = {v: per_op(v, host.net) for v in VARIANTS}
    corrected = {v: per_op(v, host.corrected) for v in VARIANTS}
    plain_probe, plain_count = probe_mean("plain")
    print(f"{workload.name}: {len(chosen)} ops of {OP_S[0]} to {OP_S[1]} s, "
          f"{len(runs['plain'][chosen[0]])} runs of each variant, "
          f"{plain_count} probes inside plain runs")
    for variant in VARIANTS[1:]:
        raw_ratio = statistics.median(raw[variant][i] / raw["plain"][i] for i in chosen)
        cor_ratio = statistics.median(corrected[variant][i] / corrected["plain"][i]
                                      for i in chosen)
        mean, count = probe_mean(variant)
        print(f"{variant}: raw ratio {raw_ratio:.4f}, corrected ratio {cor_ratio:.4f}, "
              f"probe ratio {mean / plain_probe:.4f} ({count} probes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
