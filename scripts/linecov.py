#!/usr/bin/env python3
"""Line coverage of ``src/repro`` under the test suite, standard library only.

Lists every ``src/`` function the suite never calls, and, per file, the
lines inside functions that did run but were never executed — the
inputs to coverage-guided deletion (ROADMAP item 8)::

    python scripts/linecov.py                    # tier-1 -> results/linecov.txt
    python scripts/linecov.py --out /tmp/cov.txt tests/test_gns.py

Extra arguments go to pytest (default: ``tests``).  Tracing uses
``sys.settrace``/``threading.settrace`` and starts before pytest imports
``tests/conftest.py``, so module bodies and import-time calls count.
The run is several times slower than a plain one, so the per-test
ceiling (``REPRO_TEST_TIMEOUT``) defaults to 600 s here.  Two stress
tests in ``tests/test_core_trace.py`` hammer a lock from many threads
and do not finish under a line tracer; they are deselected by name.

The executable lines of a function are the line numbers its code
objects (comprehensions included) carry, minus its ``def`` line.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import threading
import time
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = str(SRC / "repro") + os.sep

#: ``file::name`` of tests that do not finish under a line tracer.
DESELECT = (
    "tests/test_core_trace.py::TestFmTracer::test_summary_safe_under_concurrent_writes",
    "tests/test_core_trace.py::TestTransferMonitorMatchesScan::test_summary_rows_are_not_torn",
)

_calls: Set[Tuple[str, int, str]] = set()  # (file, first line, name) of every code run
_lines: Set[Tuple[str, int]] = set()  # (file, line) of every line run


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PACKAGE):
        return None
    _calls.add((code.co_filename, code.co_firstlineno, code.co_name))
    return _local


def start() -> None:
    threading.settrace(_global)
    sys.settrace(_global)


def stop() -> None:
    sys.settrace(None)
    threading.settrace(None)  # type: ignore[arg-type]


# -- the report -----------------------------------------------------------------
def _nested(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const


def _functions(code: CodeType) -> Iterator[Tuple[CodeType, Set[int]]]:
    """Every named function under ``code`` with its executable lines."""
    for child in _nested(code):
        if child.co_name.startswith("<"):
            continue  # a lambda or comprehension: its lines belong to its parent
        if not child.co_flags & inspect.CO_OPTIMIZED:  # a class body, run at import
            yield from _functions(child)
            continue
        lines: Set[int] = set()
        stack = [child]
        while stack:
            inner = stack.pop()
            lines.update(line for _, _, line in inner.co_lines() if line is not None)
            stack.extend(c for c in _nested(inner) if c.co_name.startswith("<"))
        lines.discard(child.co_firstlineno)
        yield child, lines
        yield from _functions(child)


def _ranges(lines: List[int]) -> str:
    spans: List[str] = []
    start = prev = lines[0]
    for line in lines[1:] + [-1]:
        if line != prev + 1:
            spans.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
        prev = line
    return ", ".join(spans)


def report(argv: List[str], deselected: int, elapsed: float) -> str:
    never: List[str] = []
    partial: Dict[str, List[int]] = {}
    n_funcs = n_lines = n_missed = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = str(path)
        rel = str(path.relative_to(REPO))
        module = compile(path.read_text(encoding="utf-8"), name, "exec")
        for code, lines in _functions(module):
            n_funcs += 1
            if (name, code.co_firstlineno, code.co_name) not in _calls:
                never.append(f"{rel}:{code.co_firstlineno} {code.co_qualname}")
                continue
            missed = sorted(line for line in lines if (name, line) not in _lines)
            n_lines += len(lines)
            n_missed += len(missed)
            if missed:
                partial.setdefault(rel, []).extend(missed)
    out = [
        "# Line coverage of src/repro under the test suite (scripts/linecov.py).",
        f"# pytest {' '.join(argv)}; {deselected} deselected; {elapsed:.0f} s traced.",
        f"# {n_funcs} functions, {len(never)} never called; {n_lines} lines in "
        f"called functions, {n_missed} never executed.",
        "",
        f"## Never-called functions ({len(never)})",
        *never,
        "",
        "## Never-executed lines inside functions that ran",
        *(f"{rel}: {_ranges(sorted(set(lines)))}" for rel, lines in sorted(partial.items())),
    ]
    return "\n".join(out) + "\n"


class LineCov:
    """The pytest plugin: deselects the tracer-hostile tests and writes
    the report when the session ends."""

    def __init__(self, argv: List[str], out: Path):
        self.argv = argv
        self.out = out
        self.deselected = 0
        self.t0 = time.monotonic()

    def pytest_collection_modifyitems(self, config, items):
        keep = [item for item in items if item.nodeid not in DESELECT]
        dropped = [item for item in items if item.nodeid in DESELECT]
        if dropped:
            config.hook.pytest_deselected(items=dropped)
            items[:] = keep
        self.deselected = len(dropped)

    def pytest_sessionfinish(self, session, exitstatus):
        stop()
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.out.write_text(report(self.argv, self.deselected, time.monotonic() - self.t0))
        print(f"\nlinecov: wrote {self.out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=REPO / "results" / "linecov.txt")
    args, pytest_args = parser.parse_known_args()
    pytest_args = pytest_args or ["tests"]
    os.chdir(REPO)
    sys.path.insert(0, str(SRC))
    os.environ.setdefault("REPRO_TEST_TIMEOUT", "600")
    start()  # before pytest, so conftest's import of repro is traced
    import pytest

    return pytest.main(
        ["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[LineCov(pytest_args, args.out)]
    )


if __name__ == "__main__":
    sys.exit(main())
