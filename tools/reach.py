"""Statement reach: the lines of `src/forensicross/` that a test run never
executes.

Runs pytest in this process under a standard-library `sys.settrace` line
tracer, then prints, per source file, each line that holds bytecode and
never ran, with runs of such lines joined into ranges. It needs no coverage
package. Run it from the repository root; any arguments go to pytest, and
with none pytest runs the `testpaths` of `pyproject.toml`:

    python tools/reach.py
    python tools/reach.py tests/test_sim.py -k stage

The exit status is pytest's. Tracing makes the run about twice as slow.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "forensicross"


def code_lines(path: Path) -> list[int]:
    """The lines of `path` that hold bytecode in any of its code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _s, _e, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return sorted(lines)


def never_ran(lines: list[int], ran: set[int]) -> list[str]:
    """The lines not in `ran`, with neighbours among `lines` joined."""
    runs: list[list[int]] = []
    previous_missed = False
    for line in lines:
        missed = line not in ran
        if missed and previous_missed:
            runs[-1][1] = line
        elif missed:
            runs.append([line, line])
        previous_missed = missed
    return [str(a) if a == b else f"{a}-{b}" for a, b in runs]


def traced_pytest(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with `args` and return its exit code and the lines run in
    each file of the package."""
    hits: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}

    def trace(frame, event, _arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(Path(name).resolve())
        ran = by_name[name]
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def trace_lines(frame, event, _arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = traced_pytest(args)
    print("\nlines of src/forensicross that never ran:")
    for path in sorted(hits):
        lines = code_lines(path)
        missed = never_ran(lines, hits[path])
        count = len(set(lines) - hits[path])
        print(f"{path.relative_to(ROOT)}: {count} of {len(lines)}")
        if missed:
            print("  " + ", ".join(missed))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
