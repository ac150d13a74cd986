"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The result line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it record the
environment and the run's context.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "serve-plain", "serve-sharded")
# ``train`` is a closed loop on one thread.  OpenBLAS at its default starts
# a second thread that spins beside the Python thread, so any other load on
# a 2-core host makes BLAS calls wait for a descheduled thread: one busy
# competing thread halved training throughput.  ``train`` runs with one BLAS
# thread; the serving workloads keep the environment as shipped, so the
# shard processes' oversubscription still shows on ``serve-sharded``.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "train":  # before numpy loads OpenBLAS
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    # The program is built from source in this checkout: no install step.
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import wl_serve_plain, wl_serve_sharded, wl_train
    from perfbench.common import environment

    runner = {
        "train": wl_train.run,
        "serve-plain": wl_serve_plain.run,
        "serve-sharded": wl_serve_sharded.run,
    }[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    outcome = runner(args.seed, args.seconds, bool(args.trace))
    result = outcome.result(bool(args.trace))
    print("notes " + json.dumps(outcome.notes, sort_keys=True, default=str))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<14} {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
