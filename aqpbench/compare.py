#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 aqpbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE] \
        [--metrics FILE] [--claim WORKLOAD:METRIC ...]
    python3 aqpbench/compare.py --self-test

Each directory holds bench_e2e records (the files --json writes), any
number of runs per workload. For every workload and end-to-end metric of the
untraced runs it prints both medians and quartiles and one verdict:

  better      the change wins at least 9 of 10 pairs of runs and the
              medians differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  within      neither
  unresolved  the parent's own spread exceeds the bound, and the change's
              runs do not all read better than all of the parent's

The metric map (--metrics, default metrics.json beside this file) names the
metrics the records carry beyond BENCHMARK.json, such as the absolute
latencies. They have no bound: their verdict is "better" by the same rule,
else "recorded".

Runs pair up by seed, in seed order. A --claim names one workload and
metric, gated or recorded, that must come out "better". Exits 1 on any
"worse" verdict or unmet claim, else 0.

When both directories hold traced runs, it then prints each per-layer
metric's medians, with the end-to-end metrics and workloads that layer
should move, from the metric map. Per-layer metrics carry no bound and no
verdict: they show where a change's saving appears.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_runs(directory, traced):
    """{workload: [record, ...]} for the traced or untraced records."""
    runs = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            rec = load_json(os.path.join(base, name))
            if bool(rec.get("trace")) != traced:
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, bound, lower_is_better):
    """Compares two lists of one metric's values, in seed-paired order. A
    bound of None marks a recorded metric, which is never worse."""
    sign = 1.0 if lower_is_better else -1.0

    def gain(p, c):  # positive when c is better than p
        return sign * (p - c)

    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    scale = abs(p_med) if p_med else 1.0
    worse_by = -gain(p_med, c_med) / scale
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    separated = all(gain(p, c) > 0 for p in parent for c in change)
    if bound is not None and (p_q3 - p_q1) / scale > bound:
        return "better" if separated else "unresolved"
    if bound is not None and worse_by > bound:
        return "worse"
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    return "within" if bound is not None else "recorded"


def check_metric_map(bench, metric_map):
    """Errors in the metric map: it must map each per-layer metric of
    BENCHMARK.json once, to metrics and workloads that exist."""
    per_layer = [m["name"] for m in bench["per_layer"]]
    metrics = (set(per_layer) | {m["name"] for m in bench["end_to_end"]} |
               {m["name"] for m in metric_map["recorded"]})
    workloads = {w["name"] for w in bench["workloads"]}
    mapped = [e["name"] for e in metric_map["layers"]]
    errors = []
    if sorted(mapped) != sorted(per_layer):
        errors.append("the metric map names layers %s, BENCHMARK.json names %s"
                      % (sorted(mapped), sorted(per_layer)))
    for e in metric_map["layers"]:
        errors += ["%s moves unknown metric %s" % (e["name"], m)
                   for m in e["moves"] if m not in metrics]
        errors += ["%s names unknown workload %s" % (e["name"], w)
                   for w in e["on"] if w not in workloads]
    return errors


def value(rec, name):
    """A metric's value in a record, gated or recorded; None if absent."""
    m = rec["metrics"].get(name) or rec.get("extra", {}).get(name)
    return m["value"] if m else None


def compare_layers(parent_dir, change_dir, metric_map, out):
    """Prints per-layer medians of the traced runs; returns
    {(workload, metric): change median / parent median - 1}."""
    parent, change = load_runs(parent_dir, True), load_runs(change_dir, True)
    moved = {}
    if not set(parent) & set(change):
        return moved
    out.write("\n%-18s %-26s %12s %12s %8s  %s\n" % (
        "workload", "per-layer metric", "parent", "change", "change", "should move"))
    for wl in sorted(set(parent) & set(change)):
        for e in metric_map["layers"]:
            name = e["name"]
            pv = [r["layers"][name]["value"] for r in parent[wl] if name in r["layers"]]
            cv = [r["layers"][name]["value"] for r in change[wl] if name in r["layers"]]
            if not pv or not cv:
                continue
            p_med, c_med = statistics.median(pv), statistics.median(cv)
            rel = c_med / p_med - 1.0 if p_med else 0.0
            moved[(wl, name)] = rel
            target = " ".join(e["moves"]) + (" (on this workload)" if wl in e["on"] else "")
            out.write("%-18s %-26s %12.4g %12.4g %+7.1f%%  %s\n" % (
                wl, name, p_med, c_med, 100.0 * rel, target))
    return moved


def compare(parent_dir, change_dir, bench, metric_map, claims, out=sys.stdout):
    """Prints the comparison tables; returns ({(workload, metric): verdict},
    {(workload, per-layer metric): relative change}, ok)."""
    parent, change = load_runs(parent_dir, False), load_runs(change_dir, False)
    rows = [(m["name"], m["bound"], m["better"] == "lower") for m in bench["end_to_end"]]
    rows += [(m["name"], None, m["better"] == "lower") for m in metric_map["recorded"]]
    verdicts = {}
    out.write("%-18s %-18s %26s %26s  %s\n" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "verdict"))
    for wl in sorted(set(parent) & set(change)):
        for name, bound, lower in rows:
            pv = [value(r, name) for r in parent[wl]]
            cv = [value(r, name) for r in change[wl]]
            if None in pv or None in cv:
                continue
            v = verdict(pv, cv, bound, lower)
            verdicts[(wl, name)] = v
            out.write("%-18s %-18s %26s %26s  %s\n" % (
                wl, name, "%.4g/%.4g/%.4g" % quartiles(pv),
                "%.4g/%.4g/%.4g" % quartiles(cv), v))
    failed = [k for k, v in verdicts.items() if v == "worse"]
    for claim in claims:
        wl, _, name = claim.partition(":")
        met = verdicts.get((wl, name)) == "better"
        out.write("claim %s: %s\n" % (claim, "met" if met else "NOT met"))
        if not met:
            failed.append(claim)
    moved = compare_layers(parent_dir, change_dir, metric_map, out)
    return verdicts, moved, not failed


def self_test():
    """Runs the checked-in fixture runs, whose verdicts are known, and checks
    the metric map against the repository's BENCHMARK.json."""
    fixtures = os.path.join(HERE, "fixtures")
    expected = load_json(os.path.join(fixtures, "expected.json"))
    fixture_bench = load_json(os.path.join(fixtures, "BENCHMARK.json"))
    fixture_map = load_json(os.path.join(fixtures, "metrics.json"))
    with open(os.devnull, "w") as quiet:
        verdicts, moved, ok = compare(os.path.join(fixtures, "parent"),
                                      os.path.join(fixtures, "change"),
                                      fixture_bench, fixture_map,
                                      ["fixture:m_better", "fixture:m_same"], quiet)
    errors = []
    for name, want in expected["verdicts"].items():
        got = verdicts.get(("fixture", name))
        if got != want:
            errors.append("%s: got %s, want %s" % (name, got, want))
    for name, want in expected["layers"].items():
        got = moved.get(("fixture", name))
        if got is None or abs(got - want) > 1e-9:
            errors.append("%s: moved %s, want %s" % (name, got, want))
    if ok:
        errors.append("a regression and an unmet claim must fail the comparison")
    errors += check_metric_map(fixture_bench, fixture_map)
    incomplete = dict(fixture_map, layers=fixture_map["layers"][:-1])
    if not check_metric_map(fixture_bench, incomplete):
        errors.append("a metric map missing a per-layer metric must be refused")
    errors += check_metric_map(load_json(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")),
                               load_json(os.path.join(HERE, "metrics.json")))
    for e in errors:
        print("self-test FAILED:", e)
    print("self-test", "failed" if errors else "passed")
    return not errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    ap.add_argument("--metrics", default=os.path.join(HERE, "metrics.json"))
    ap.add_argument("--claim", action="append", default=[])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return 0 if self_test() else 1
    if not args.parent or not args.change:
        ap.error("PARENT_DIR and CHANGE_DIR are required")
    _, _, ok = compare(args.parent, args.change, load_json(args.benchmark),
                       load_json(args.metrics), args.claim)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
