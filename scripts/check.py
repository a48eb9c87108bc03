#!/usr/bin/env python3
"""Repo lint gate: ruff when installed, a built-in fallback otherwise.

CI images that carry ruff get the full ``ruff check`` configured in
pyproject.toml.  Minimal images still get a useful gate with no
third-party dependency:

* every Python file under src/, tests/, benchmarks/ and scripts/ must
  byte-compile;
* module-level imports that are never used are reported (skipped in
  ``__init__.py`` re-export modules and for names listed in
  ``__all__``);
* no file may contain tab indentation or trailing whitespace.

Four repo-specific rules run in BOTH paths (ruff cannot express them):

* in ``src/repro/transport/`` and ``src/repro/gridbuffer/`` an
  ``except`` handler for the OSError family must never swallow
  silently — its body must raise, call something (log, count, clean
  up), or the except line must carry a ``# fault-ok: <why>``
  annotation.  Those layers are where the fault-injection harness
  aims; a silent swallow there hides exactly the failures the recovery
  machinery must see.
* nothing under ``src/`` may call ``time.time()`` — duration math on
  the wall clock breaks under NTP steps, and the distributed-trace
  clock alignment assumes every timestamp is monotonic.  Use
  ``time.monotonic()`` (or ``time.perf_counter()``); code that
  genuinely needs wall-clock time must annotate the line with
  ``# wall-clock-ok: <why>``.
* ``os.environ`` / ``os.getenv`` may be read under ``src/`` only in the
  modules listed in ``ENV_READERS`` (fault injection, the trace process
  label, the loop watchdog).  Configuration that changes how bytes move
  lives in the GNS record or a constructor argument, never in the
  environment.
* ``threading.Thread(`` may appear under ``src/`` only in the modules
  listed in ``THREAD_OWNERS`` (the engine loop, the GNS watch,
  workflow stages).  No open file or transfer owns a thread: a window
  of blocks runs as futures and timers on the engine loop.

Exit status is non-zero on any finding, so ``python scripts/check.py``
works as a pre-commit / CI step independent of pytest.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHECKED_DIRS = ("src", "tests", "benchmarks", "scripts")

#: Directories where an OSError-family except handler must not swallow.
SWALLOW_SCOPES = ("src/repro/transport", "src/repro/gridbuffer")
#: Exception names treated as the OSError family (incl. repro's own
#: ConnectionError subclasses, which flow through the same paths).
OSERROR_NAMES = {
    "OSError", "IOError", "EnvironmentError", "ConnectionError",
    "ConnectionResetError", "ConnectionRefusedError", "ConnectionAbortedError",
    "BrokenPipeError", "TimeoutError", "InterruptedError",
    "FrameError", "InjectedFault", "timeout",
}


#: The only modules under src/ allowed to read the environment.
ENV_READERS = (
    "src/repro/faults/__init__.py",
    "src/repro/obs/spans.py",
    "src/repro/transport/aio.py",
)

#: The only modules under src/ allowed to start a thread.
THREAD_OWNERS = (
    "src/repro/core/multiplexer.py",
    "src/repro/transport/aio.py",
    "src/repro/workflow/runner.py",
)


def python_files() -> list[Path]:
    out: list[Path] = []
    for name in CHECKED_DIRS:
        base = REPO / name
        if base.is_dir():
            out.extend(sorted(base.rglob("*.py")))
    return out


def run_ruff() -> int:
    proc = subprocess.run(
        ["ruff", "check", *CHECKED_DIRS], cwd=REPO, check=False
    )
    return proc.returncode


def _used_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            inner = node
            while isinstance(inner, ast.Attribute):
                inner = inner.value
            if isinstance(inner, ast.Name):
                used.add(inner.id)
    return used


def _declared_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    try:
                        return set(ast.literal_eval(node.value))
                    except ValueError:
                        return set()
    return set()


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    rel = path.relative_to(REPO)
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.rstrip("\n")
        if stripped != stripped.rstrip():
            problems.append(f"{rel}:{lineno}: trailing whitespace")
        body = stripped.lstrip()
        indent = stripped[: len(stripped) - len(body)]
        if "\t" in indent:
            problems.append(f"{rel}:{lineno}: tab indentation")
    try:
        tree = ast.parse(text, filename=str(rel))
    except SyntaxError as exc:
        problems.append(f"{rel}:{exc.lineno}: syntax error: {exc.msg}")
        return problems
    if path.name == "__init__.py":
        return problems  # re-export modules import for their namespace
    exported = _declared_all(tree)
    used = _used_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or any(a.name == "*" for a in node.names):
                continue
            names = [(a.asname or a.name, a.name) for a in node.names]
        else:
            continue
        for bound, original in names:
            if bound.startswith("_") or bound in used or bound in exported:
                continue
            problems.append(
                f"{rel}:{node.lineno}: unused import {original!r}"
            )
    return problems


def _exception_names(node: ast.expr | None) -> set[str]:
    if node is None:
        return set(OSERROR_NAMES)  # bare except catches everything
    names: set[str] = set()
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ast.Tuple):
            stack.extend(item.elts)
        elif isinstance(item, ast.Name):
            names.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return names


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    """True when the handler body neither raises nor calls anything."""
    for node in ast.walk(handler):
        if isinstance(node, (ast.Raise, ast.Call)):
            return False
    return True


def check_swallowed_oserrors(path: Path, text: str, tree: ast.Module) -> list[str]:
    rel = path.relative_to(REPO)
    if not str(rel).replace("\\", "/").startswith(SWALLOW_SCOPES):
        return []
    lines = text.splitlines()
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not (_exception_names(node.type) & OSERROR_NAMES):
            continue
        if not _swallows_silently(node):
            continue
        # Escape hatch: annotate the except clause (or its first body
        # line) with ``# fault-ok: <why>``.
        first_body = node.body[0].lineno if node.body else node.lineno
        annotated = any(
            "fault-ok" in lines[ln - 1]
            for ln in range(node.lineno, min(first_body, len(lines)) + 1)
        )
        if annotated:
            continue
        problems.append(
            f"{rel}:{node.lineno}: OSError-family handler swallows silently; "
            "raise, log/count, or annotate with '# fault-ok: <why>'"
        )
    return problems


def check_wall_clock(path: Path, text: str, tree: ast.Module) -> list[str]:
    """Forbid ``time.time()`` in src/ (monotonic clocks only).

    Duration math against the wall clock breaks under NTP adjustments,
    and the trace merge's clock alignment presumes monotonic stamps.
    ``# wall-clock-ok: <why>`` on the offending line is the escape
    hatch for genuine wall-clock needs (log timestamps, file mtimes).
    """
    rel = path.relative_to(REPO)
    if not str(rel).replace("\\", "/").startswith("src/"):
        return []
    lines = text.splitlines()
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        is_time_time = (
            isinstance(fn, ast.Attribute)
            and fn.attr == "time"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "time"
        )
        if not is_time_time:
            continue
        if "wall-clock-ok" in lines[node.lineno - 1]:
            continue
        problems.append(
            f"{rel}:{node.lineno}: time.time() in src/ — use time.monotonic() "
            "for durations, or annotate with '# wall-clock-ok: <why>'"
        )
    return problems


def check_env_reads(path: Path, text: str, tree: ast.Module) -> list[str]:
    """Forbid ``os.environ`` / ``os.getenv`` in src/ outside ``ENV_READERS``."""
    rel = str(path.relative_to(REPO)).replace("\\", "/")
    if not rel.startswith("src/") or rel in ENV_READERS:
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (
                node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            )
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(
                a.name in ("environ", "getenv") for a in node.names
            )
        else:
            continue
        if hit:
            problems.append(
                f"{rel}:{node.lineno}: environment access in src/ — take a "
                "constructor argument (or extend ENV_READERS in scripts/check.py)"
            )
    return problems


def check_thread_owners(path: Path, text: str, tree: ast.Module) -> list[str]:
    """Forbid ``threading.Thread(`` in src/ outside ``THREAD_OWNERS``."""
    rel = str(path.relative_to(REPO)).replace("\\", "/")
    if not rel.startswith("src/") or rel in THREAD_OWNERS:
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "Thread"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "threading"
        ):
            problems.append(
                f"{rel}:{node.lineno}: thread started in src/ — run per-file work as "
                "futures or timers on the engine loop (or extend THREAD_OWNERS in "
                "scripts/check.py)"
            )
    return problems


def run_swallow_lint() -> int:
    problems: list[str] = []
    for path in python_files():
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            continue  # both lint paths already report syntax errors
        problems.extend(check_swallowed_oserrors(path, text, tree))
        problems.extend(check_wall_clock(path, text, tree))
        problems.extend(check_env_reads(path, text, tree))
        problems.extend(check_thread_owners(path, text, tree))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def run_fallback() -> int:
    problems: list[str] = []
    for path in python_files():
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} problem(s) found")
        return 1
    print(f"checked {len(python_files())} files: clean")
    return 0


def main() -> int:
    if shutil.which("ruff"):
        rc = run_ruff()
    else:
        print("ruff not installed; running built-in fallback checks", file=sys.stderr)
        rc = run_fallback()
    return rc or run_swallow_lint()


if __name__ == "__main__":
    sys.exit(main())
