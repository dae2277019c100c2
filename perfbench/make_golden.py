"""Write golden.json: the output bits of every workload at GOLDEN_SEED.

Run it from the repository root, only when a change to the package is meant
to change the numbers (for example a versioned stream change), and say so
in the change:

    python3 perfbench/make_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        for name, w in workloads.WORKLOADS.items():
            golden[name] = workloads.run_once(w, workloads.GOLDEN_SEED,
                                              Path(tmp)).bits
            print(name, json.dumps(golden[name]))
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n",
                                     encoding="utf-8")


if __name__ == "__main__":
    main()
