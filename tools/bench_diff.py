#!/usr/bin/env python3
"""Fail when a deterministic bench artifact drifts from its baseline.

Stdlib-only gate for the CI perf job. The simulator is bit-
deterministic, so every numeric field of a freshly produced artifact
must reproduce its committed baseline: a relative difference above
1e-6 in either direction fails (the tolerance only absorbs libm
quantile differences across glibc builds).

If both documents are sweep artifacts (objects holding a "points"
list), rows are matched by their "label" and every shared numeric
field is compared; otherwise the top-level numeric fields are
compared directly. A baseline field missing from the current artifact
fails too.

Example:
  bench_diff.py --baseline bench/BENCH_fig2_quick.json --current fig2.json

Exit codes: 0 clean, 1 drift found, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

TOL = 1e-6


def numeric_fields(obj):
    """The comparable scalars of a JSON object (bool is not numeric)."""
    return {
        k: v
        for k, v in obj.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def compare_value(base, cur):
    """Return (ok, detail) for one metric."""
    if base == 0.0:
        return abs(cur) <= TOL, f"baseline 0, current {cur:g}"
    rel = (cur - base) / abs(base)
    return abs(rel) <= TOL, f"{base:g} -> {cur:g} ({rel:+.2%}, tol {TOL:g})"


class Differ:
    def __init__(self):
        self.rows = []
        self.failures = 0

    def compare_fields(self, ctx, base_obj, cur_obj):
        base_num = numeric_fields(base_obj)
        cur_num = numeric_fields(cur_obj)
        shared = sorted(set(base_num) & set(cur_num))
        if not shared:
            raise ValueError(f"{ctx or 'top level'}: no shared numeric "
                             "fields to compare")
        for name in shared:
            ok, detail = compare_value(float(base_num[name]),
                                       float(cur_num[name]))
            label = f"{ctx}.{name}" if ctx else name
            self.rows.append((ok, label, detail))
            if not ok:
                self.failures += 1
        missing = sorted(set(base_num) - set(cur_num))
        if missing:
            self.rows.append(
                (False, ctx or "top level",
                 "missing in current: " + ", ".join(missing)))
            self.failures += 1

    def compare_docs(self, base_doc, cur_doc):
        if not isinstance(base_doc, dict) or not isinstance(cur_doc, dict):
            raise ValueError("documents must be JSON objects")
        base_pts = base_doc.get("points")
        cur_pts = cur_doc.get("points")
        if isinstance(base_pts, list) and isinstance(cur_pts, list):
            cur_by_label = {
                p.get("label"): p for p in cur_pts if isinstance(p, dict)
            }
            for bp in base_pts:
                label = bp.get("label")
                cp = cur_by_label.get(label)
                if cp is None:
                    self.rows.append((False, str(label),
                                      "point missing in current"))
                    self.failures += 1
                    continue
                self.compare_fields(str(label), bp, cp)
            return
        self.compare_fields("", base_doc, cur_doc)

    def report(self):
        for ok, label, detail in self.rows:
            if not ok:
                print(f"  [FAIL] {label}: {detail}")
        print(f"bench_diff: {len(self.rows)} comparisons, "
              f"{self.failures} failed")


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    args = ap.parse_args(argv)

    try:
        with open(args.baseline, encoding="utf-8") as f:
            base_doc = json.load(f)
        with open(args.current, encoding="utf-8") as f:
            cur_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_diff: cannot load input: {exc}", file=sys.stderr)
        return 2

    differ = Differ()
    try:
        differ.compare_docs(base_doc, cur_doc)
    except ValueError as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2
    differ.report()
    return 1 if differ.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
