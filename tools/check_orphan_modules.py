#!/usr/bin/env python3
"""Fail when a header under src/ is used only by its own tests.

Usage:

    python3 tools/check_orphan_modules.py [REPO_ROOT]

A header src/<dir>/<name>.hpp is an orphan when no file includes it
except its own src/<dir>/<name>.cpp and files under tests/. Includes
from src/, examples/, bench/ and perfbench/ count as uses. An include
resolves relative to the including file's directory first, then to src/
(the library's include root). Exits 1 listing every orphan, 0 otherwise.
An orphan is either wired into the library or deleted with its test.
"""
import re
import sys
from pathlib import Path

USER_DIRS = ("src", "examples", "bench", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def main():
    if len(sys.argv) > 2:
        print("usage: check_orphan_modules.py [REPO_ROOT]", file=sys.stderr)
        return 2
    root = (Path(sys.argv[1]) if len(sys.argv) == 2
            else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    headers = sorted(p.resolve() for p in src.rglob("*.hpp"))
    if not headers:
        print(f"{src}: no headers found; is this the repository root?",
              file=sys.stderr)
        return 2
    used = set()
    for d in USER_DIRS:
        for f in sorted((root / d).rglob("*")):
            if f.suffix not in SOURCE_SUFFIXES or not f.is_file():
                continue
            f = f.resolve()
            for inc in INCLUDE.findall(f.read_text(errors="replace")):
                for cand in (f.parent / inc, src / inc):
                    cand = cand.resolve()
                    if cand.is_file():
                        # A header's own implementation file is not a use.
                        if cand != f and cand.with_suffix(".cpp") != f:
                            used.add(cand)
                        break
    orphans = [h.relative_to(src) for h in headers if h not in used]
    for h in orphans:
        print(f"ORPHAN: src/{h} is included only by its own .cpp or tests/")
    if orphans:
        print(f"FAIL: {len(orphans)} header(s) under src/ have no user "
              f"outside tests/ (wire them in or delete them with their tests)")
        return 1
    print(f"OK: every one of {len(headers)} headers under src/ has a user "
          f"outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
