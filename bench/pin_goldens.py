"""Pin a workload's goldens: run every op once and store the SHA-256 of its
rendered output, for the reference and the holdout stream seed.

The goldens guard byte stability, so pin them only at a commit whose
outputs are the reference:

    python3 bench/pin_goldens.py --workload smith
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import worker


def pin(workload, stream_seed):
    parent = os.path.join(worker.BENCH, ".work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=parent)
    try:
        ops = workload.build(stream_seed, workdir)
        _, results = worker.run_pass(workload, ops, range(len(ops)))
        texts = [worker.render(workload, result) for _, result in results]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [i for i, text in enumerate(texts) if text is None]
    if failed:
        raise SystemExit(f"ops {failed} raised; nothing pinned")
    return [worker.digest(text) for text in texts]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    worker.import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    pinned = {str(seed): pin(workload, seed)
              for seed in (workload.ref_seed, workload.holdout_seed)}
    out = os.path.join(worker.GOLDENS, f"{workload.name}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    print(f"pinned {', '.join(f'{len(v)} ops of seed {k}' for k, v in pinned.items())} "
          f"to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
