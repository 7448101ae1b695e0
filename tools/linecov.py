"""List the lines of each ``src/spatialqr`` module that a pytest run never executes.

Usage: ``python tools/linecov.py [pytest arguments]``, from the repository
root; for example ``python tools/linecov.py -q tests/test_numeric.py``.

A stdlib line tracer (``sys.settrace``) records the package lines run in this
process while pytest runs, so subprocesses are not followed.  A module's
executable lines come from its code objects, so blank lines, comments and
docstrings never count as missed.  Tracing makes the suite several times
slower, so a test with a time budget can fail under it: one is expected to,
``tests/test_acceptance.py::test_criterion_3_qr_correctness``, whose budget
is 1 s.  Exits with pytest's code.
"""

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spatialqr"


def executable(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # line 0: a module's preamble
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable(const)
    return lines


def main(argv: list[str]) -> int:
    import pytest  # imported untraced, so its own imports cost nothing

    run: dict[str, set[int]] = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def trace(frame, event, arg):
        lines = run.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call event: a def line, or a module's first line

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, lines in run.items():
        source = Path(path).read_text(encoding="utf-8")
        lines_of = executable(compile(source, path, "exec"))
        missed = sorted(lines_of - lines)
        name = Path(path).relative_to(ROOT)
        print(f"{name}: {len(missed)} of {len(lines_of)} lines never run"
              + (": " + " ".join(map(str, missed)) if missed else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
