"""Record the stdout digests and exit codes that test_golden.py checks.

    PYTHONPATH=src python3 tests/record_golden.py

It first runs the rest of the test suite and refuses to record while any
test fails, so only a commit whose outputs are otherwise verified can set
the golden bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

import test_golden  # noqa: E402


def main() -> int:
    suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                            "--ignore", str(TESTS / "test_golden.py"), str(TESTS)],
                           cwd=TESTS.parent)
    if suite.returncode != 0:
        print("refusing to record: the test suite fails", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as opdir:
        golden = {key: test_golden.run(argv)
                  for key, argv in test_golden.invocations(opdir)}
    test_golden.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    print(f"recorded {len(golden)} invocations in {test_golden.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
