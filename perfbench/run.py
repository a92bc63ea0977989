"""Entry point of the cnflow benchmark.

    python3 perfbench/run.py --workload sweep-d8 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
of that checkout, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json and ``--trace 1`` the per-layer
ones.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _limit_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at the cores this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cnflow" / "__init__.py").is_file():
        print(f"error: no cnflow sources under {src}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(src))
    import cnflow
    import harness

    if Path(cnflow.__file__).resolve().parent != (src / "cnflow").resolve():
        print(f"error: cnflow was imported from {cnflow.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"pick from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                ROOT / "BENCHMARK.json", ROOT / ".perfbench-out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
