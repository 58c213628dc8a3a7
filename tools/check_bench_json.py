#!/usr/bin/env python3
"""Validate sweep-bench artifacts against the committed schema.

CI's release job feeds every artifact it produces through this
script: the fig4 sweep's --json/--stats-out/--trace, the fleet
drill's --json/--stats-out/--trace, the governor sweep's
--json/--trace, and bench_sim_core's --json (--simcore). A RunResult
field added (or renamed) in src/core/results.cc without a matching
edit to tools/bench_schema.json fails the build instead of silently
shipping a different artifact shape.

Only the Python standard library is used.
"""

import argparse
import json
import sys

ERRORS = []


def fail(msg):
    ERRORS.append(msg)


def type_ok(value, kind):
    """Check a leaf value against a schema type name."""
    if kind == "string":
        return isinstance(value, str)
    if kind == "uint":
        return isinstance(value, int) and not isinstance(value, bool) \
            and value >= 0
    if kind == "number":
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool)
    if kind == "array":
        return isinstance(value, list)
    if kind == "object":
        return isinstance(value, dict)
    raise ValueError("unknown schema type %r" % kind)


def check_fields(obj, fields, where, exact=True):
    """Every schema field present with the right type; no strays."""
    for name, kind in fields.items():
        if name not in obj:
            fail("%s: missing field %r" % (where, name))
        elif not type_ok(obj[name], kind):
            fail("%s: field %r should be %s, got %r" %
                 (where, name, kind, obj[name]))
    if exact:
        for name in obj:
            if name not in fields:
                fail("%s: unexpected field %r (schema out of date?)" %
                     (where, name))


def load(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("%s: %s" % (path, e))
        return None


def resolve(tree, dotted):
    """Walk a nested stats object along a dotted path."""
    node = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


ENERGY_COMPONENTS = (
    "energy_snic_cpu_j",
    "energy_snic_accel_j",
    "energy_host_cpu_j",
    "energy_host_accel_j",
    "energy_fleet_j",
    "energy_extra_j",
    "energy_static_j",
)


def check_energy_sum(row, where):
    """Per-component joules must sum to the reported total (the
    EnergyLedger defines the total as the literal sum, so anything
    beyond serialization round-off means the breakdown is broken)."""
    values = [row.get(name) for name in ENERGY_COMPONENTS]
    total = row.get("energy_total_j")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values + [total]):
        return  # missing/mistyped fields already reported
    sigma = sum(values)
    if abs(total - sigma) > 1e-9 * max(abs(total), 1.0):
        fail("%s: energy components sum to %r but energy_total_j is %r"
             % (where, sigma, total))


GOV_COUNTERS = (
    "gov_rebalances",
    "gov_migrations",
    "gov_parks",
    "gov_unparks",
    "gov_min_active_cores",
    "gov_max_active_cores",
)


def check_governor(row, where):
    """Governor counters must be internally consistent: the active-core
    extremes are ordered, and a run with zero governor epochs (governor
    disabled) reports every governor counter as zero."""
    values = {n: row.get(n) for n in GOV_COUNTERS + ("gov_epochs",)}
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in values.values()):
        return  # missing/mistyped fields already reported
    if values["gov_min_active_cores"] > values["gov_max_active_cores"]:
        fail("%s: gov_min_active_cores %d > gov_max_active_cores %d" %
             (where, values["gov_min_active_cores"],
              values["gov_max_active_cores"]))
    if values["gov_epochs"] == 0:
        for name in GOV_COUNTERS:
            if values[name] != 0:
                fail("%s: %s is %d but gov_epochs is 0 (governor "
                     "counters without governor epochs)" %
                     (where, name, values[name]))


def check_results(path, schema):
    doc = load(path)
    if doc is None:
        return
    check_fields(doc, schema["header"], path)
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail("%s: points must be a non-empty array" % path)
        return
    for i, row in enumerate(points):
        where = "%s: points[%d]" % (path, i)
        if not isinstance(row, dict):
            fail(where + ": not an object")
            continue
        check_fields(row, schema["point_fields"], where)
        check_energy_sum(row, where)
        check_governor(row, where)


def check_stats(path, schema):
    doc = load(path)
    if doc is None:
        return
    check_fields(doc, schema["header"], path)
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail("%s: points must be a non-empty array" % path)
        return
    for i, row in enumerate(points):
        where = "%s: points[%d]" % (path, i)
        if not isinstance(row, dict):
            fail(where + ": not an object")
            continue
        check_fields(row, schema["point_fields"], where)
        stats = row.get("stats")
        if isinstance(stats, dict) and "server" not in stats \
                and "fleet" not in stats:
            fail(where + ": stats tree has no 'server' or 'fleet' root")

    def some_point_has(dotted):
        return any(isinstance(row, dict) and
                   resolve(row.get("stats"), dotted) is not None
                   for row in points)

    # Each required dotted path must resolve in at least one point
    # (mode-specific subtrees, e.g. server.snic.*, are absent from
    # points that have no such component). Single-server and fleet
    # artifacts carry different roots, so each root's paths are
    # required only when some point actually exposes that root.
    if some_point_has("server"):
        for dotted in schema.get("required_stat_paths", []):
            if not some_point_has(dotted):
                fail("%s: no point exposes stat path %r" %
                     (path, dotted))
    if some_point_has("fleet"):
        for dotted in schema.get("required_fleet_stat_paths", []):
            if not some_point_has(dotted):
                fail("%s: no point exposes stat path %r" %
                     (path, dotted))


def check_simcore(path, schema):
    """The bench_sim_core artifact: every metric and workload field
    present and numeric."""
    doc = load(path)
    if doc is None:
        return
    check_fields(doc, schema["header"], path)
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        check_fields(metrics, schema["metric_fields"],
                     "%s: metrics" % path)
    workload = doc.get("workload")
    if isinstance(workload, dict):
        check_fields(workload, schema["workload_fields"],
                     "%s: workload" % path)


def check_trace(path, schema):
    doc = load(path)
    if doc is None:
        return
    check_fields(doc, schema["header"], path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("%s: traceEvents must be a non-empty array" % path)
        return
    phases = set(schema["event_phases"])
    meta_names = ("thread_name", "process_name", "run_metadata")
    saw_instant = saw_meta = False
    for i, ev in enumerate(events):
        where = "%s: traceEvents[%d]" % (path, i)
        if not isinstance(ev, dict):
            fail(where + ": not an object")
            continue
        ph = ev.get("ph")
        if ph not in phases:
            fail("%s: unexpected phase %r" % (where, ph))
            continue
        if ph == "i":
            saw_instant = True
            check_fields(ev, schema["instant_fields"], where,
                         exact=False)
            ts = ev.get("ts")
            if isinstance(ts, (int, float)) and ts < 0:
                fail(where + ": negative ts")
        elif ph == "M":
            saw_meta = True
            if ev.get("name") not in meta_names:
                fail("%s: metadata event is not one of %s: %r" %
                     (where, "/".join(meta_names), ev.get("name")))
        else:
            # Async span ("b"/"e") and flow ("s"/"t"/"f") events from
            # span documents are id-keyed; nesting and pairing are
            # validated in depth by tools/check_trace_json.py.
            if "id" not in ev:
                fail("%s: %r event without id" % (where, ph))
            ts = ev.get("ts")
            if isinstance(ts, (int, float)) and ts < 0:
                fail(where + ": negative ts")
    if not saw_instant:
        fail("%s: no instant events recorded" % path)
    if not saw_meta:
        fail("%s: no thread_name metadata (lanes unlabeled)" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--schema", default="tools/bench_schema.json")
    ap.add_argument("--results", help="results artifact (--json)")
    ap.add_argument("--stats", help="stats artifact (--stats-out)")
    ap.add_argument("--trace", help="trace artifact (--trace)")
    ap.add_argument("--simcore",
                    help="bench_sim_core artifact (--json)")
    args = ap.parse_args()
    if not (args.results or args.stats or args.trace or args.simcore):
        ap.error("give at least one of "
                 "--results/--stats/--trace/--simcore")

    schema = load(args.schema)
    if schema is None:
        print("\n".join(ERRORS), file=sys.stderr)
        return 1

    if args.results:
        check_results(args.results, schema["results"])
    if args.stats:
        check_stats(args.stats, schema["stats"])
    if args.trace:
        check_trace(args.trace, schema["trace"])
    if args.simcore:
        check_simcore(args.simcore, schema["simcore"])

    if ERRORS:
        for e in ERRORS:
            print("error: " + e, file=sys.stderr)
        print("%d schema violation(s)" % len(ERRORS), file=sys.stderr)
        return 1
    checked = [p for p in (args.results, args.stats, args.trace,
                           args.simcore) if p]
    print("schema OK: " + ", ".join(checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
