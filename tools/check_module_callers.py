#!/usr/bin/env python3
"""Fail when a library header under src/ has no non-test includer.

A module that only its own tests reach is dead weight: no simulation,
bench or example runs it. For every src/**/*.hh this script looks for
an `#include "<dir>/<name>.hh"` in some file outside tests/, other than
the header's own .cc. Headers with none are reported and the exit
status is 1.

Usage: python3 tools/check_module_callers.py
"""

import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SCANNED = ("src", "bench", "examples", "perfbench", "tools")
SUFFIXES = (".cc", ".hh")


def main():
    root = Path(__file__).resolve().parent.parent
    src = root / "src"

    includers = {}   # "alg/deflate.hh" -> {files that include it}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in INCLUDE.findall(text):
                includers.setdefault(name, set()).add(path)

    headers = sorted(src.rglob("*.hh"))
    orphans = []
    for header in headers:
        key = header.relative_to(src).as_posix()
        own_cc = header.with_suffix(".cc")
        if not includers.get(key, set()) - {own_cc}:
            orphans.append(key)
    for key in orphans:
        print(f"src/{key}: no includer outside tests/ and its own .cc",
              file=sys.stderr)
    if not headers:
        print(f"no headers found under {src}", file=sys.stderr)
        return 1
    if orphans:
        return 1
    print(f"module callers OK: {len(headers)} headers under src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
