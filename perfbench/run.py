"""groupmoe benchmark: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file, never from an installed copy. BLAS is pinned to one
thread before numpy is imported. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Lines above it report every figure by name, the
environment, and any failed check. Working files go to ``.perfbench/``
in the checkout and are removed on exit; a traced run leaves its spans
there as ``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_train", "wide_eval", "panel_ingest")
EXIT_USAGE = 2


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on the import path; False if it is missing."""
    if not (SRC / "groupmoe" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import groupmoe

    return Path(groupmoe.__file__).resolve().is_relative_to(SRC.resolve())


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(np),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"perfbench: no groupmoe sources under {SRC}", file=sys.stderr)
        return EXIT_USAGE
    import workloads

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
