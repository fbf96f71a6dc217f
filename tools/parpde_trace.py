#!/usr/bin/env python3
"""parpde-trace: analyze parpde Chrome trace-event files.

The C++ side (--trace=FILE on parpde_cli, telemetry::write_chrome_trace)
emits one Chrome trace-event JSON per run: complete spans (ph "X") on one
pid lane per rank and flow events (ph "s"/"f") tying every halo/collective
send to its receive across ranks. Ranks are threads of one process, so every
lane is on the one process-wide now_us() clock. This tool turns the file into
numbers:

  analyze  Critical-path attribution: for every "rollout.step" slice on
           every rank lane, buckets the step's wall time into
             forward    "rollout.forward" (the step's one plan run)
             halo_send  "halo.begin" (packing + buffered sends)
             recv_wait  "halo.finish" minus the nested "halo.stall"
             stall      "halo.stall" (timed-out receive attempts on a
                        degrading border)
             gather     "rollout.gather"
             other      residual glue (health scan, bookkeeping)
           so the six buckets sum to the measured step time exactly.
           Validates that every flow start has exactly one finish and that
           the finish is not earlier than the start (both ends are stamped
           on one monotonic clock, the start before the mailbox push and the
           finish after the pop), measures per-flow wire time (receive ts
           minus send ts), and writes the aggregate (p50/p99 step latency,
           attribution shares, flow accounting) as BENCH_trace.json. --check
           makes it exit 1 when flows are unmatched or reversed, or the
           residual exceeds --tolerance of total step time.

Usage:
  tools/parpde_trace.py analyze trace.json [-o BENCH_trace.json]
                        [--steps-out steps.jsonl] [--check] [--tolerance X]
  tools/parpde_trace.py --self-test

See docs/observability.md for the span/flow catalogue and a worked example.
"""

from __future__ import annotations

import argparse
import json
import sys

# Span names -> attribution bucket. Anything else inside a step (nested
# conv/gemm spans, say) is covered by its parent bucket or by "other".
_FORWARD = "rollout.forward"
_HALO_SEND = "halo.begin"
_HALO_FINISH = "halo.finish"
_HALO_STALL = "halo.stall"
_GATHER = "rollout.gather"
_STEP = "rollout.step"

BUCKETS = (
    "forward",
    "halo_send",
    "recv_wait",
    "stall",
    "gather",
    "other",
)


def load_trace(path: str) -> list:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
    else:
        events = doc  # bare-array form is also legal Chrome trace JSON
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array")
    return events


# --- analyze -----------------------------------------------------------------


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile on an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return float(sorted_values[rank])


def attribute_step(step: dict, children: list) -> dict:
    """Buckets one rollout.step's duration. `children` are the X spans on
    the same pid fully contained in the step's [ts, ts+dur] interval."""
    sums = {b: 0 for b in BUCKETS}
    finish = 0
    for c in children:
        name = c["name"]
        dur = int(c.get("dur", 0))
        if name == _FORWARD:
            sums["forward"] += dur
        elif name == _HALO_SEND:
            sums["halo_send"] += dur
        elif name == _HALO_FINISH:
            finish += dur
        elif name == _HALO_STALL:
            sums["stall"] += dur
        elif name == _GATHER:
            sums["gather"] += dur
    # The stall spans are nested inside halo.finish: what remains of finish
    # after subtracting them is genuine waiting on healthy receives.
    sums["recv_wait"] = max(0, finish - sums["stall"])
    accounted = sums["forward"] + sums["halo_send"] + finish + sums["gather"]
    dur = int(step.get("dur", 0))
    sums["other"] = dur - accounted  # residual; may dip below 0 on rounding
    sums["step_us"] = dur
    return sums


def analyze_events(events: list, tolerance: float = 0.05) -> dict:
    spans_by_pid: dict = {}
    flows: dict = {}
    flow_names: dict = {}
    for e in events:
        ph = e.get("ph")
        if ph == "X":
            spans_by_pid.setdefault(e.get("pid", 0), []).append(e)
        elif ph in ("s", "f"):
            key = (e.get("cat", ""), int(e.get("id", 0)))
            rec = flows.setdefault(key, {"s": [], "f": []})
            rec[ph].append(e)
            flow_names[key] = e.get("name", "")

    # Critical-path attribution per rollout.step slice, per rank lane.
    steps = []
    for pid, spans in sorted(spans_by_pid.items()):
        spans.sort(key=lambda s: (int(s.get("ts", 0)), -int(s.get("dur", 0))))
        step_spans = [s for s in spans if s.get("name") == _STEP]
        for index, step in enumerate(step_spans):
            t0 = int(step.get("ts", 0))
            t1 = t0 + int(step.get("dur", 0))
            children = [
                s
                for s in spans
                if s is not step
                and int(s.get("ts", 0)) >= t0
                and int(s.get("ts", 0)) + int(s.get("dur", 0)) <= t1
                and s.get("name") != _STEP
            ]
            record = attribute_step(step, children)
            record["rank"] = pid
            record["step"] = index
            steps.append(record)

    # Flow accounting: every start must have exactly one finish, at or after
    # the start (one monotonic clock); wire time is receive minus send.
    started = finished = matched = unmatched = duplicated = reversed_ = 0
    wire_us = []
    by_name: dict = {}
    for key, rec in flows.items():
        name = flow_names[key]
        stat = by_name.setdefault(
            name, {"started": 0, "finished": 0, "matched": 0, "unmatched": 0}
        )
        started += len(rec["s"])
        finished += len(rec["f"])
        stat["started"] += len(rec["s"])
        stat["finished"] += len(rec["f"])
        if len(rec["s"]) == 1 and len(rec["f"]) == 1:
            matched += 1
            stat["matched"] += 1
            wire = int(rec["f"][0]["ts"]) - int(rec["s"][0]["ts"])
            if wire < 0:
                reversed_ += 1
            wire_us.append(wire)
        elif len(rec["s"]) > 1 or len(rec["f"]) > 1:
            duplicated += 1
        else:
            unmatched += 1
            stat["unmatched"] += 1

    durations = sorted(s["step_us"] for s in steps)
    total_step = sum(durations)
    attribution = {b: sum(s[b] for s in steps) for b in BUCKETS}
    attribution_pct = {
        b: (100.0 * attribution[b] / total_step if total_step else 0.0)
        for b in BUCKETS
    }
    unattributed_pct = (
        100.0 * abs(attribution["other"]) / total_step if total_step else 0.0
    )
    wire_us.sort()

    failures = []
    if not steps:
        failures.append("no rollout.step slices in the trace")
    if unmatched:
        failures.append(f"{unmatched} flow(s) without a matching receive")
    if duplicated:
        failures.append(f"{duplicated} flow id(s) with duplicate endpoints")
    if reversed_:
        failures.append(f"{reversed_} flow(s) finish before their start")
    if unattributed_pct > 100.0 * tolerance:
        failures.append(
            f"unattributed residual {unattributed_pct:.2f}% of step time "
            f"exceeds {100.0 * tolerance:.1f}%"
        )

    return {
        "bench": "trace",
        "ranks": len(spans_by_pid),
        "steps": len(steps),
        "step_us": {
            "p50": percentile(durations, 0.50),
            "p99": percentile(durations, 0.99),
            "mean": (total_step / len(durations)) if durations else 0.0,
            "max": float(durations[-1]) if durations else 0.0,
            "total": total_step,
        },
        "attribution_us": attribution,
        "attribution_pct": attribution_pct,
        "unattributed_pct": unattributed_pct,
        "comm_wire_us": {
            "flows": len(wire_us),
            "total": sum(wire_us),
            "mean": (sum(wire_us) / len(wire_us)) if wire_us else 0.0,
            "p99": percentile(wire_us, 0.99),
        },
        "flows": {
            "started": started,
            "finished": finished,
            "matched": matched,
            "unmatched": unmatched,
            "duplicated": duplicated,
            "reversed": reversed_,
            "by_name": by_name,
        },
        "check": {"passed": not failures, "failures": failures},
        "per_step": steps,
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    events = load_trace(args.trace)
    report = analyze_events(events, tolerance=args.tolerance)
    report["source"] = args.trace
    per_step = report.pop("per_step")
    if args.steps_out:
        with open(args.steps_out, "w", encoding="utf-8") as f:
            for record in per_step:
                f.write(json.dumps(record, separators=(",", ":")) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")

    s = report["step_us"]
    print(
        f"{report['ranks']} rank lane(s), {report['steps']} step slice(s): "
        f"p50 {s['p50']:.0f} us, p99 {s['p99']:.0f} us"
    )
    for bucket in BUCKETS:
        print(
            f"  {bucket:<10} {report['attribution_us'][bucket]:>10d} us "
            f"({report['attribution_pct'][bucket]:5.1f}%)"
        )
    fl = report["flows"]
    print(
        f"flows: {fl['started']} started, {fl['matched']} matched, "
        f"{fl['unmatched']} unmatched, {fl['reversed']} reversed | wire p99 "
        f"{report['comm_wire_us']['p99']:.0f} us"
    )
    if args.check and not report["check"]["passed"]:
        for failure in report["check"]["failures"]:
            print(f"check FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


# --- self-test ---------------------------------------------------------------


def _span(pid, name, ts, dur, cat="rollout"):
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": pid,
    }


def _flow(ph, pid, flow_id, ts, name="domain.halo"):
    return {
        "ph": ph,
        "name": name,
        "cat": "flow",
        "id": flow_id,
        "ts": ts,
        "pid": pid,
        "tid": pid,
    }


def _synthetic_rank(pid, base):
    """One rollout step with a known layout: 10 us halo_send, 20 us finish
    containing a 5 us stall, 60 us forward, 8 us gather, 2 us residual glue
    -> 100 us step."""
    return [
        _span(pid, _STEP, base, 100),
        _span(pid, _HALO_SEND, base, 10, cat="comm"),
        _span(pid, _HALO_FINISH, base + 10, 20, cat="comm"),
        _span(pid, _HALO_STALL, base + 15, 5, cat="comm"),
        _span(pid, _FORWARD, base + 30, 60),
        _span(pid, _GATHER, base + 90, 8),
    ]


def self_test() -> int:
    events = _synthetic_rank(0, 1000) + _synthetic_rank(1, 1001)
    events += [
        _flow("s", 0, 7, 1005),
        _flow("f", 1, 7, 1008),  # wire 3 us
        _flow("s", 1, 8, 1005),
        _flow("f", 0, 8, 1006),  # wire 1 us
    ]
    report = analyze_events(events)
    expected = {
        "forward": 120,
        "halo_send": 20,
        "recv_wait": 30,
        "stall": 10,
        "gather": 16,
        "other": 4,
    }
    failures = []
    if report["steps"] != 2 or report["ranks"] != 2:
        failures.append(f"expected 2 steps / 2 ranks, got {report['steps']}"
                        f" / {report['ranks']}")
    for bucket, want in expected.items():
        got = report["attribution_us"][bucket]
        if got != want:
            failures.append(f"bucket {bucket}: expected {want}, got {got}")
    if sum(report["attribution_us"][b] for b in BUCKETS) != 200:
        failures.append("attribution does not sum to total step time")
    if report["comm_wire_us"]["total"] != 4:
        failures.append(
            f"wire total: expected 4, got {report['comm_wire_us']['total']}"
        )
    if report["flows"]["matched"] != 2 or report["flows"]["unmatched"] != 0:
        failures.append(f"flow accounting wrong: {report['flows']}")
    if not report["check"]["passed"]:
        failures.append(f"clean trace failed check: {report['check']}")

    # An orphaned send (message dropped by fault injection, say) must fail
    # --check and be counted as unmatched.
    bad = events + [_flow("s", 0, 9, 1050)]
    bad_report = analyze_events(bad)
    if bad_report["flows"]["unmatched"] != 1:
        failures.append("orphaned flow not counted as unmatched")
    if bad_report["check"]["passed"]:
        failures.append("orphaned flow passed --check")

    # A flow whose receive is stamped before its send cannot happen on one
    # monotonic clock: it must be counted as reversed and fail --check.
    backwards = events + [_flow("s", 0, 10, 1060), _flow("f", 1, 10, 1059)]
    backwards_report = analyze_events(backwards)
    if backwards_report["flows"]["reversed"] != 1:
        failures.append("reversed flow not counted as reversed")
    if backwards_report["check"]["passed"]:
        failures.append("reversed flow passed --check")

    # A trace whose steps are mostly unattributed time must fail the
    # tolerance gate.
    sparse = [_span(0, _STEP, 0, 1000), _span(0, _HALO_SEND, 0, 10, "comm")]
    sparse_report = analyze_events(sparse, tolerance=0.05)
    if sparse_report["check"]["passed"]:
        failures.append("99% unattributed step passed the 5% tolerance gate")

    if failures:
        print("parpde_trace self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("parpde_trace self-test passed")
    return 0


# --- driver ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the analyzer against a synthetic trace",
    )
    sub = parser.add_subparsers(dest="command")

    p_analyze = sub.add_parser(
        "analyze", help="critical-path attribution + flow validation"
    )
    p_analyze.add_argument("trace", help="trace JSON (from --trace)")
    p_analyze.add_argument(
        "-o", "--out", default="BENCH_trace.json", help="aggregate JSON output"
    )
    p_analyze.add_argument(
        "--steps-out", default="", help="per-step attribution JSONL output"
    )
    p_analyze.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="max unattributed fraction of step time for --check (0.05 = 5%%)",
    )
    p_analyze.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on unmatched or reversed flows or excessive unattributed "
        "time",
    )

    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.command == "analyze":
        return cmd_analyze(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
