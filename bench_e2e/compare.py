"""Compare two sets of result files, metric by metric.

    python3 -m bench_e2e.compare bench_e2e/baseline/a bench_e2e/baseline/b

Each argument is a directory (every ``*.json`` under it) of records
written with ``--out``.  For every (workload, end-to-end metric) the
table gives each set's median and quartiles, the gap of B's median
from A's as a share of A's (positive = worse), the metric's bound, and
a verdict:

* ``worse``       the gap exceeds the bound;
* ``unresolved``  the gap is within the bound but either set's own
                  spread (inter-quartile distance / median) exceeds it,
                  so "unchanged" cannot be claimed;
* ``ok``          otherwise.

Exit code 1 when any row is ``worse``.  ``--markdown`` prints the table
the way NOISE.md embeds it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .schema import END_TO_END

Rows = List[Tuple[str, str, str, str, str, str, str, str, str]]
HEADER = ("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
          "n", "gap", "bound", "verdict")


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` from a directory of records."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") or "metrics" not in record:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a: Dict[str, Dict[str, List[float]]], b: Dict[str, Dict[str, List[float]]]) -> Rows:
    rows: Rows = []
    for workload in sorted(set(a) & set(b)):
        for name, unit, better, bound in END_TO_END:
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                continue
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            gap = (bm - am) / am if better == "lower" else (am - bm) / am
            noisy = max((a3 - a1) / am, (b3 - b1) / bm) > bound
            verdict = "worse" if gap > bound else "unresolved" if noisy else "ok"
            rows.append(
                (
                    workload, name, unit,
                    f"{am:.4g} [{a1:.4g}, {a3:.4g}]", f"{bm:.4g} [{b1:.4g}, {b3:.4g}]",
                    f"{len(va)}/{len(vb)}", f"{gap:+.1%}", f"{bound:.0%}", verdict,
                )
            )
    return rows


def render(rows: Rows, markdown: bool) -> str:
    table = [HEADER, *rows]
    if markdown:
        lines = ["| " + " | ".join(row) + " |" for row in table]
        lines.insert(1, "|" + "---|" * len(HEADER))
        return "\n".join(lines)
    widths = [max(len(row[i]) for row in table) for i in range(len(HEADER))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline set (directory of result records)")
    parser.add_argument("b", type=Path, help="candidate set")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    rows = compare(load(args.a), load(args.b))
    if not rows:
        print("no (workload, metric) present in both sets", file=sys.stderr)
        return 2
    print(render(rows, args.markdown))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
