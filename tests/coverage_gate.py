"""Line-coverage gate: run tier-1 in-process and report the lines of src/synlat it never runs.

Run it from the repository root with Python 3.12 or later, pytest and
hypothesis importable; arguments go on to pytest:

    python tests/coverage_gate.py

A sys.monitoring LINE hook goes in before synlat is imported, and each
line's event is disabled after its first hit, so the suite runs at about
its usual speed.  Every line of src/synlat that has code (a line start of a
code object compiled from the file) must run, unless
tests/unexecuted_lines.txt lists it as "file: stripped source text", one
entry per such line ("#" starts a comment line).  The list is keyed by
text, not by line number, so edits elsewhere in a file leave it alone.  The
gate fails when the suite fails, when a line outside the list goes
unexecuted, and when an entry names no unexecuted line: the list only
shrinks.  Lines that only subprocess tests run count as unexecuted.
"""

import dis
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "synlat"
LISTED = Path(__file__).resolve().parent / "unexecuted_lines.txt"


def code_lines(code):
    """Line numbers that start an instruction in code or in a code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line}   # 0 or None: no source line
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= code_lines(const)
    return lines


def main(args) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits = set()
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID

    def line(code, number):
        if code.co_filename in files:
            hits.add((code.co_filename, number))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "coverage gate")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    import pytest   # synlat is first imported by the suite, under the hook

    try:
        status = pytest.main(["-W", "error", "-q", str(ROOT / "tests"), *args])
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.free_tool_id(tool)
    if status != 0:
        print(f"coverage gate: the suite failed (pytest exit {status})")
        return 1

    missed = []   # (file, line number, stripped text)
    executable = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = code_lines(compile(source, name, "exec"))
        executable += len(lines)
        missed += [(path.name, n, text[n - 1].strip()) for n in sorted(lines) if (name, n) not in hits]
    listed = Counter(
        tuple(entry.split(": ", 1)) for entry in LISTED.read_text(encoding="utf-8").splitlines()
        if entry and not entry.startswith("#")
    )
    unlisted = Counter((f, t) for f, _, t in missed) - listed
    stale = listed - Counter((f, t) for f, _, t in missed)
    failed = bool(unlisted or stale)
    print(f"coverage gate: {executable} lines with code, {len(missed)} unexecuted, {sum(listed.values())} listed")
    for f, n, t in missed:
        if unlisted[f, t]:
            unlisted[f, t] -= 1
            print(f"not run and not listed: src/synlat/{f}:{n}: {t}")
    for (f, t), count in stale.items():
        print(f"listed but run (remove from {LISTED.name}): {f}: {t}" + (f" (x{count})" if count > 1 else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
