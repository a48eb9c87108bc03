"""``python3 -m bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>``.

Prints the result as one JSON object on the last line of stdout:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
set with ``--trace 0``, the per-layer set with ``--trace 1``).  Exit
code 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    from .schema import RUN_SECONDS, WORKLOAD_WHY

    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two passes")
    parser.add_argument("--out", type=Path, help="also write the full result record here "
                        "(a directory when --workload all)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return _run_all(args)

    # The servers and clients under test read REPRO_* at import time;
    # a stray fault-injection or pool-size variable must not leak in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(REPO / "src"))
    try:
        from .harness import run
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "repro":
            raise
        print(f"bench_e2e: no program to measure under {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in record["metrics"].items():
        print(f"{args.workload}/{name} = {metric['value']:.6g} {metric['unit']}")
    for error in record["errors"]:
        print(f"FAILED OP: {error}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def _run_all(args) -> int:
    """One fresh subprocess per workload, so RSS and CPU are that workload's alone."""
    from .schema import WORKLOAD_WHY

    status = 0
    for name in WORKLOAD_WHY:
        cmd = [
            sys.executable, "-m", "bench_e2e", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.out is not None:
            cmd += ["--out", str(args.out / f"{name}.json")]
        status |= subprocess.run(cmd, cwd=REPO, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
