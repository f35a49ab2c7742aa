#!/usr/bin/env python3
"""trace_report — validate and summarize --trace-out span dumps.

The femtocr binaries dump their span rings as one Chrome trace-event JSON
document (schema: docs/OBSERVABILITY.md), loadable in Perfetto or
chrome://tracing and summarizable here without either:

    {"traceEvents": [{name, ph: "X", ts, dur, pid, tid,
                      args: {depth, ...span args}}, ...],
     "displayTimeUnit": "ns",
     "femtocr": {manifest: {seed, threads, scheme, build_type, trace_enabled,
                            git_sha, hostname, started_at, cli},
                 span_counts: {"span.name": int, ...},
                 dropped_events: int,
                 flight_recorder: {anomalies_total, anomalies: [...],
                                   slow_slots: [...]}}}

ts/dur are microseconds (fractional part preserves the nanosecond clock).

Modes:
  trace_report.py --check FILE
      Validate FILE: event shape, femtocr section shape, span_counts
      consistent with the exported events, and the instrumentation nesting
      contract — every core.dual.solve span must sit inside a
      sim.slot.allocate span on the same thread. Exit 0 when valid, 1
      otherwise (problems printed one per line). CI gates on this.
  trace_report.py --summary FILE
      Per-span-name table: count, total time, self time (total minus time
      in child spans on the same thread).
  trace_report.py --slo FILE [--span NAME] [--p50-budget-ns N]
                  [--p99-budget-ns N]
      Per-slot decision-latency SLO table: count/p50/p90/p99/max over the
      durations of NAME (default sim.slot.allocate, the slot decision
      span). Percentiles are nearest-rank. With a budget flag the mode
      becomes a gate: exit 1 when the percentile exceeds the budget.
  trace_report.py --anomalies FILE
      Flight-recorder listing: every captured anomaly (run, slot, decision
      latency, trigger tags, dual-recovery rung) and the slowest-slot pool.

Exit status: 0 on success/valid, 1 on invalid input or failed SLO gate,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# scheme may be empty (the benches have no --scheme); the provenance
# fields are always stamped, so they must be nonempty.
MANIFEST_STR_KEYS = ("scheme", "build_type", "git_sha", "hostname",
                     "started_at", "cli")
MANIFEST_NONEMPTY_KEYS = ("build_type", "git_sha", "hostname", "started_at",
                          "cli")

# core::DualRecovery, in enum order (dual_solver.h): how the slot's prices
# were recovered when the subgradient loop degraded.
RECOVERY_RUNGS = ("converged", "last_iterate", "best_iterate", "exact")

# Containment slack in microseconds: ts/dur carry nanosecond precision as
# three decimals, so half an ns absorbs any fixed-point rounding.
EPS_US = 0.0005


def load(path: Path) -> dict:
    with path.open(encoding="utf-8") as f:
        return json.load(f)


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """util/table's print() box style: +---+ rules, left-aligned cells."""
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    def line(cells: list[str]) -> str:
        return "|" + "|".join(
            f" {cell:<{w}} " for cell, w in zip(cells, widths)) + "|"
    out = [rule, line(headers), rule]
    out += [line(row) for row in rows]
    out.append(rule)
    return "\n".join(out)


def fmt_ns(ns: float) -> str:
    ns = int(ns)
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.3f} us"
    return f"{ns} ns"


def fmt_us(us: float) -> str:
    return fmt_ns(us * 1000.0)


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_event(e, label: str, problems: list[str],
                chrome_shape: bool) -> None:
    """Shape check for one span event (traceEvents or a frozen capture)."""
    if not isinstance(e, dict):
        problems.append(f"{label}: not an object")
        return
    if not (isinstance(e.get("name"), str) and e["name"]):
        problems.append(f"{label}: name is not a nonempty string")
    if chrome_shape:
        if e.get("ph") not in ("X", "M"):
            problems.append(f"{label}: ph is not 'X' or 'M'")
        if not (isinstance(e.get("pid"), int) and e["pid"] >= 0):
            problems.append(f"{label}: pid is not a nonnegative integer")
    for key in ("ts", "dur"):
        if not (is_num(e.get(key)) and e[key] >= 0):
            problems.append(f"{label}: {key} is not a nonnegative number")
    if not (isinstance(e.get("tid"), int) and e["tid"] >= 0):
        problems.append(f"{label}: tid is not a nonnegative integer")
    args = e.get("args")
    if args is not None:
        if not isinstance(args, dict):
            problems.append(f"{label}: args is not an object")
        else:
            if not (isinstance(args.get("depth"), int) and args["depth"] >= 0):
                problems.append(
                    f"{label}: args.depth is not a nonnegative integer")
            for key, value in args.items():
                if key != "depth" and not is_num(value):
                    problems.append(f"{label}: args.{key} is not a number")


def check_capture(c, label: str, problems: list[str]) -> None:
    if not isinstance(c, dict):
        problems.append(f"{label}: not an object")
        return
    for key in ("run", "slot", "latency_ns"):
        if not isinstance(c.get(key), int):
            problems.append(f"{label}: {key} is not an integer")
    triggers = c.get("triggers")
    if not isinstance(triggers, list) or not all(
            isinstance(t, str) and t for t in triggers):
        problems.append(f"{label}: triggers is not an array of tag strings")
    events = c.get("events")
    if not isinstance(events, list):
        problems.append(f"{label}: events is not an array")
        return
    for i, e in enumerate(events):
        check_event(e, f"{label}.events[{i}]", problems, chrome_shape=False)


def complete_events(doc: dict) -> list[dict]:
    return [e for e in doc.get("traceEvents", [])
            if isinstance(e, dict) and e.get("ph") == "X"]


def check_nesting(events: list[dict], inner: str, outer: str) -> list[str]:
    """Every `inner` span must be time-contained in an `outer` span on the
    same tid — the instrumentation-site contract for the solve path."""
    problems: list[str] = []
    outers: dict[int, list[tuple[float, float]]] = {}
    for e in events:
        if e["name"] == outer:
            outers.setdefault(e["tid"], []).append(
                (e["ts"], e["ts"] + e["dur"]))
    for e in events:
        if e["name"] != inner:
            continue
        lo, hi = e["ts"], e["ts"] + e["dur"]
        spans = outers.get(e["tid"], [])
        if not any(b <= lo + EPS_US and hi <= t + EPS_US for b, t in spans):
            problems.append(
                f"nesting: {inner} at tid={e['tid']} ts={e['ts']} is not "
                f"contained in any {outer} span on its thread")
    return problems


def check_schema(doc) -> list[str]:
    """Returns a list of problems; empty means the document is valid."""
    problems: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            problems.append(msg)
        return cond

    if not expect(isinstance(doc, dict), "top level is not a JSON object"):
        return problems
    if not expect(isinstance(doc.get("traceEvents"), list),
                  "missing or non-array section: traceEvents"):
        return problems
    expect(isinstance(doc.get("displayTimeUnit"), str),
           "missing or non-string displayTimeUnit")
    if not expect(isinstance(doc.get("femtocr"), dict),
                  "missing or non-object section: femtocr"):
        return problems

    for i, e in enumerate(doc["traceEvents"]):
        check_event(e, f"traceEvents[{i}]", problems, chrome_shape=True)
    if problems:
        return problems

    fem = doc["femtocr"]
    manifest = fem.get("manifest")
    if expect(isinstance(manifest, dict), "femtocr.manifest missing"):
        for key in ("seed", "threads"):
            expect(isinstance(manifest.get(key), int) and manifest[key] >= 0,
                   f"manifest.{key} is not a nonnegative integer")
        for key in MANIFEST_STR_KEYS:
            expect(isinstance(manifest.get(key), str),
                   f"manifest.{key} is not a string")
        for key in MANIFEST_NONEMPTY_KEYS:
            expect(bool(manifest.get(key)), f"manifest.{key} is empty")
        expect(isinstance(manifest.get("trace_enabled"), bool),
               "manifest.trace_enabled is not a boolean")

    span_counts = fem.get("span_counts")
    if expect(isinstance(span_counts, dict), "femtocr.span_counts missing"):
        for name, n in span_counts.items():
            expect(isinstance(n, int) and n >= 0,
                   f"span_counts[{name}]: not a nonnegative integer")
        # The exported events ARE the resident ring contents the counts were
        # folded from, so the two views must agree exactly.
        seen: dict[str, int] = {}
        for e in complete_events(doc):
            seen[e["name"]] = seen.get(e["name"], 0) + 1
        for name in sorted(set(span_counts) | set(seen)):
            expect(span_counts.get(name, 0) == seen.get(name, 0),
                   f"span_counts[{name}]={span_counts.get(name, 0)} but "
                   f"{seen.get(name, 0)} complete event(s) exported")

    expect(isinstance(fem.get("dropped_events"), int)
           and fem["dropped_events"] >= 0,
           "femtocr.dropped_events is not a nonnegative integer")

    rec = fem.get("flight_recorder")
    if expect(isinstance(rec, dict), "femtocr.flight_recorder missing"):
        anomalies = rec.get("anomalies")
        if expect(isinstance(anomalies, list),
                  "flight_recorder.anomalies is not an array"):
            for i, c in enumerate(anomalies):
                check_capture(c, f"anomalies[{i}]", problems)
            total = rec.get("anomalies_total")
            expect(isinstance(total, int) and total >= len(anomalies),
                   "flight_recorder.anomalies_total is not an integer >= "
                   "len(anomalies)")
        slow = rec.get("slow_slots")
        if expect(isinstance(slow, list),
                  "flight_recorder.slow_slots is not an array"):
            for i, c in enumerate(slow):
                check_capture(c, f"slow_slots[{i}]", problems)

    problems += check_nesting(complete_events(doc),
                              inner="core.dual.solve",
                              outer="sim.slot.allocate")
    return problems


def self_times(events: list[dict]) -> dict[str, float]:
    """Per-name self time in us: span duration minus time spent in child
    spans on the same thread (interval-nesting sweep per tid)."""
    child_us: list[float] = [0.0] * len(events)
    order = sorted(range(len(events)),
                   key=lambda i: (events[i]["tid"], events[i]["ts"],
                                  -events[i]["dur"]))
    stack: list[int] = []  # indices of open ancestors on the current tid
    for i in order:
        e = events[i]
        while stack:
            top = events[stack[-1]]
            if (top["tid"] == e["tid"]
                    and e["ts"] + e["dur"] <= top["ts"] + top["dur"] + EPS_US
                    and top["ts"] <= e["ts"] + EPS_US):
                break
            stack.pop()
        if stack:
            child_us[stack[-1]] += e["dur"]
        stack.append(i)
    out: dict[str, float] = {}
    for i, e in enumerate(events):
        out[e["name"]] = out.get(e["name"], 0.0) + e["dur"] - child_us[i]
    return out


def summary(doc: dict) -> str:
    events = complete_events(doc)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for e in events:
        totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"]
        counts[e["name"]] = counts.get(e["name"], 0) + 1
    selfs = self_times(events)
    rows = []
    for name in sorted(totals, key=lambda n: totals[n], reverse=True):
        mean = totals[name] / counts[name] if counts[name] else 0.0
        rows.append([name, str(counts[name]), fmt_us(totals[name]),
                     fmt_us(max(0.0, selfs.get(name, 0.0))), fmt_us(mean)])
    out = [render_table(["Span", "Count", "Total", "Self", "Mean"], rows)]
    fem = doc.get("femtocr", {})
    out.append(f"dropped_events: {fem.get('dropped_events', 0)}")
    return "\n".join(out)


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile; sorted_vals must be nonempty and sorted."""
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


def slo(doc: dict, span: str, p50_budget_ns: int | None,
        p99_budget_ns: int | None) -> tuple[str, list[str]]:
    durs = sorted(e["dur"] for e in complete_events(doc)
                  if e["name"] == span)
    if not durs:
        return "", [f"slo: no {span} spans in the trace"]
    p50, p90, p99 = (percentile(durs, q) for q in (0.50, 0.90, 0.99))
    table = render_table(
        ["Span", "Count", "p50", "p90", "p99", "Max"],
        [[span, str(len(durs)), fmt_us(p50), fmt_us(p90), fmt_us(p99),
          fmt_us(durs[-1])]])
    failures: list[str] = []
    for label, value_us, budget_ns in (("p50", p50, p50_budget_ns),
                                       ("p99", p99, p99_budget_ns)):
        if budget_ns is not None and value_us * 1000.0 > budget_ns:
            failures.append(
                f"slo: FAIL: {span} {label} {fmt_us(value_us)} exceeds "
                f"budget {fmt_ns(budget_ns)}")
    return table, failures


def capture_rung(c: dict) -> str:
    """Dual-recovery rung of a capture, read off the frozen core.dual.solve
    span's `recovery` arg ("-" when the capture holds no solve span)."""
    for e in c.get("events", []):
        if e.get("name") == "core.dual.solve":
            rung = (e.get("args") or {}).get("recovery")
            if is_num(rung) and 0 <= int(rung) < len(RECOVERY_RUNGS):
                return RECOVERY_RUNGS[int(rung)]
    return "-"


def anomalies_report(doc: dict) -> str:
    rec = doc.get("femtocr", {}).get("flight_recorder", {})
    anomalies = rec.get("anomalies", [])
    slow = rec.get("slow_slots", [])
    out = [f"anomalies_total: {rec.get('anomalies_total', 0)} "
           f"(captured: {len(anomalies)})"]
    if anomalies:
        rows = [[str(c["run"]), str(c["slot"]), fmt_ns(c["latency_ns"]),
                 capture_rung(c), ", ".join(c.get("triggers", [])),
                 str(len(c.get("events", [])))]
                for c in anomalies]
        out.append(render_table(
            ["Run", "Slot", "Latency", "Recovery", "Triggers", "Spans"],
            rows))
    if slow:
        rows = [[str(c["run"]), str(c["slot"]), fmt_ns(c["latency_ns"]),
                 str(len(c.get("events", [])))] for c in slow]
        out.append("Slowest slots")
        out.append(render_table(["Run", "Slot", "Latency", "Spans"], rows))
    return "\n".join(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", type=Path, help="--trace-out JSON dump")
    parser.add_argument("--check", action="store_true",
                        help="validate the trace and exit 0/1")
    parser.add_argument("--summary", action="store_true",
                        help="per-span count/total/self-time table")
    parser.add_argument("--slo", action="store_true",
                        help="decision-latency percentile table")
    parser.add_argument("--anomalies", action="store_true",
                        help="flight-recorder captures and slowest slots")
    parser.add_argument("--span", default="sim.slot.allocate",
                        help="span gated by --slo "
                             "(default: sim.slot.allocate)")
    parser.add_argument("--p50-budget-ns", type=int, default=None,
                        help="--slo fails when p50 exceeds this budget")
    parser.add_argument("--p99-budget-ns", type=int, default=None,
                        help="--slo fails when p99 exceeds this budget")
    args = parser.parse_args(argv)

    if not (args.check or args.summary or args.slo or args.anomalies):
        parser.error("pick a mode: --check, --summary, --slo or --anomalies")

    try:
        doc = load(args.file)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_report: {e}", file=sys.stderr)
        return 1

    if args.check:
        problems = check_schema(doc)
        for p in problems:
            print(f"{args.file}: {p}")
        if problems:
            print(f"trace_report: INVALID ({len(problems)} problem(s))")
            return 1
        print(f"trace_report: valid ({args.file})")
        return 0

    bad = check_schema(doc)
    if bad:
        print(f"trace_report: invalid input: {bad[0]}", file=sys.stderr)
        return 1
    rc = 0
    sections: list[str] = []
    if args.summary:
        sections.append(summary(doc))
    if args.slo:
        table, failures = slo(doc, args.span, args.p50_budget_ns,
                              args.p99_budget_ns)
        if table:
            sections.append(table)
        sections += failures
        if failures:
            rc = 1
    if args.anomalies:
        sections.append(anomalies_report(doc))
    print("\n".join(sections))
    return rc


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # e.g. `trace_report.py --summary t.json | head`
        sys.exit(0)
