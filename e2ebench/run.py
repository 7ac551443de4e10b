"""Run one benchmark workload and print its metrics as the last line.

    python3 e2ebench/run.py --workload batch-2048 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``
as it stands in the checkout; nothing is built.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Inputs,
outputs and spill files live in a scratch directory under ``e2ebench/``
that is removed on exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
SRC_DIR = os.path.join(REPO_ROOT, "src")


def main(argv=None) -> int:
    sys.path.insert(0, REPO_ROOT)
    from e2ebench import catalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"e2ebench: the program's source is missing ({SRC_DIR}/repro); "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from e2ebench import jobs, measure, serve

    # A terminated run still stops its processes and removes its scratch dir.
    # As subreaper, the benchmark also inherits (and so can stop) processes
    # whose own parent exited without waiting for them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    measure.become_subreaper()
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        module = serve if args.workload == "serve-512" else jobs
        result, notes = module.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), REPO_ROOT, SRC_DIR, work)
    finally:
        killed = measure.stop_descendants()
        shutil.rmtree(work, ignore_errors=True)
    if killed:
        notes.append(f"processes still running after the run, killed: {killed}")
    if args.trace:
        # Every per-layer metric is printed; a layer that did not run reads 0.
        metrics = {name: measure.metric(0.0, row["unit"])
                   for name, row in catalog.PER_LAYER.items()}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    measure.emit(result, measure.host_record(REPO_ROOT), notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
