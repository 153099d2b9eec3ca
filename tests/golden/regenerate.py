"""Rewrite tests/golden/digests.json from the current code and print each
case that moved, appeared or vanished relative to the file it replaces.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from test_golden import DIGESTS, GOLDEN, compute_digests  # noqa: E402


def main() -> None:
    # the commands' own console reports would bury the list of moved cases
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        digests = compute_digests(Path(work))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    for case in sorted(digests.keys() | GOLDEN.keys()):
        if case not in GOLDEN:
            print(f"appeared {case}")
        elif case not in digests:
            print(f"vanished {case}")
        elif digests[case] != GOLDEN[case]:
            print(f"moved    {case}")
    print(f"{len(digests)} digests written to {DIGESTS}")


if __name__ == "__main__":
    main()
