"""Run with ``python -m pytest bench_e2e/tests`` from the repo root."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for entry in (REPO, REPO / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
