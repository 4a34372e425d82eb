"""Line trace of the tier-1 suite over the package source.

Run from the repository root, with any extra pytest arguments:

    PYTHONPATH=src python tests/line_trace.py [pytest args]

It runs the suite in this process under ``sys.settrace`` and prints each
executable line of ``src/dlnflow`` that no test runs, as
``path:line: source``, then their count. Executable lines are those the
compiled modules attribute bytecode to. Tracing about doubles the
suite's run time. The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dlnflow"


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from ``path`` run."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # A module starts with an instruction at line 0, which is no line.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    sources = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in sources}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # Only frames of the package trace their lines.
        return trace_lines if frame.f_code.co_filename in ran else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, path in sources.items():
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
