#!/usr/bin/env python3
"""Fail when a compiler warning is located in the project's own sources.

Usage:

    cmake --build build -j 2>&1 | tee build.log
    python3 tools/check_build_warnings.py build.log

Reads a GCC/Clang build log and finds every diagnostic line of the form
`path:line[:col]: warning: ...`. A warning whose location lies under
src/, tests/, examples/ or bench/ of this repository fails the check
(exit 1). Warnings located elsewhere -- system and toolchain headers
such as GCC 12's avx512fintrin.h (-Wmaybe-uninitialized) or libstdc++'s
char_traits.h (-Wrestrict) -- are listed but ignored: the project cannot
fix them. Exits 2 when the log holds no compile step, since an empty or
truncated log would otherwise pass.
"""
import os
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROJECT_DIRS = ("src", "tests", "examples", "bench")
WARNING = re.compile(r"^(?P<path>[^\s:][^:]*):(?P<line>\d+):(?:\d+:)? warning: (?P<msg>.*)$")
COMPILE_STEP = re.compile(r"Building (?:CXX|C) object")


def project_relative(path):
    """Path relative to the repository root, or None when outside it."""
    p = Path(path)
    if not p.is_absolute():
        p = ROOT / p
    try:
        return Path(os.path.normpath(p)).relative_to(ROOT)
    except ValueError:
        return None


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_build_warnings.py BUILD_LOG", file=sys.stderr)
        return 2
    text = Path(sys.argv[1]).read_text(errors="replace")
    if not COMPILE_STEP.search(text):
        print(f"{sys.argv[1]}: no compile step found; is this a build log?",
              file=sys.stderr)
        return 2
    project, ignored = Counter(), Counter()
    for raw in text.splitlines():
        m = WARNING.match(raw.strip())
        if m is None:
            continue
        rel = project_relative(m["path"])
        where = f"{rel if rel is not None else m['path']}:{m['line']}: {m['msg']}"
        if rel is not None and rel.parts and rel.parts[0] in PROJECT_DIRS:
            project[where] += 1
        else:
            ignored[where] += 1
    for where, n in sorted(ignored.items()):
        print(f"ignored (outside project sources, x{n}): {where}")
    for where, n in sorted(project.items()):
        print(f"WARNING in project sources (x{n}): {where}")
    if project:
        print(f"FAIL: {len(project)} distinct warning(s) in "
              f"{', '.join(d + '/' for d in PROJECT_DIRS)}")
        return 1
    print("OK: no compiler warning located in project sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
