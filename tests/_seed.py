"""The chaos suites' seed: ``REPRO_FAULTS_SEED`` when set, else the pinned one.

Fault-rule RNGs, payload bytes and corruption bit positions all derive
from it, so CI can sweep seeds and a failure replays from its seed.
"""

import os

SEED = int(os.environ.get("REPRO_FAULTS_SEED") or 20260806)
