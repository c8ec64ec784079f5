"""List the statements of src/pedpod that the Tier-1 suite never executes.

A `sys.settrace` hook records each line run in a pedpod source file while
`pytest.main` runs tests/.  A statement is a line where an `ast` statement
starts and that compiles to bytecode, so docstrings, `global` lines and
the like are never listed.  Tests that run pedpod in a child interpreter
(the CLI subprocess tests, the fresh-interpreter table builds) are not
traced: a statement that only they reach is listed as never executed.

Stdlib and pytest only.  Run it by hand from the root of a checkout; any
arguments go to pytest:

    python tools/linecov.py
    python tools/linecov.py -k audit

It prints one `path:line: source` line per statement never executed, then
a count, and exits with pytest's status.  Under the tracer the suite runs
several times slower than usual, so it is not part of Tier-1.
"""

from __future__ import annotations

import ast
import dis
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pedpod"


def _code_lines(code) -> set[int]:
    """The lines that start a bytecode instruction in a code object or any nested one."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def main(argv: list[str]) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}
    resolved: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            real = str(Path(name).resolve()) if name and not name.startswith("<") else None
            resolved[name] = real if real in files else None
            if resolved[name] is not None:
                hits.setdefault(name, hits[real])  # one set per file, whatever path imported it
        return local if resolved[name] is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    missed = 0
    for name, path in files.items():
        lines = path.read_text().splitlines()
        for line in sorted(statements(path) - hits[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
