"""Set-up step of one benchmark run, in a fresh interpreter.

Imports sparsejl from the checkout's ``src`` and writes the workload's
inputs into the work directory.  Prints one JSON line with the import time.

    python3 perfbench/prepare.py --workload NAME --seed N --work DIR [--tiny]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import sparsejl  # noqa: F401

    import_s = time.perf_counter() - START
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.work, args.seed, tiny=args.tiny).prepare()
    print(json.dumps({"import_s": import_s}))


if __name__ == "__main__":
    main()
