"""One set-up in a fresh interpreter: import, input generation, split construction.

Prints the seconds it took, measured from the first line of this script.
``run.py`` starts it several times, one after another, and reports the
median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for scratch files")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(dir=args.out) as work:
        workloads.WORKLOADS[args.workload].setup(args.seed, workloads.FULL, Path(work))
        print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
