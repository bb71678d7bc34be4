"""Re-record ``expected.json``: the pinned outputs at the default seed.

    python3 perfbench/record.py

Runs one verified cycle of every workload at full shape and writes the
values each workload pins.  Only re-record when an output is meant to
change; the benchmark otherwise treats any difference as a failed step.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS  # noqa: E402


def main() -> None:
    expected = {}
    work = ROOT / ".perfbench-work" / "record"
    for name, cls in WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = cls(work, DEFAULT_SEED)
        workload.prepare()
        workload.load()
        expected[name] = {}
        for step, call in workload.steps():
            result = call()
            workload.verify(step, result)
            expected[name][step] = workload.observed(step, result)
        print(f"recorded {name}", file=sys.stderr)
    shutil.rmtree(work.parent, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
