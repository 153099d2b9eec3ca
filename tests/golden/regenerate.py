"""Rewrite tests/golden/digests.json from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from test_golden import DIGESTS, compute_digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = compute_digests(Path(work))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS}")


if __name__ == "__main__":
    main()
