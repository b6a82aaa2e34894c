#!/usr/bin/env python3
"""Validate and summarize ORBIT-2 Chrome trace-event JSON.

Usage:
    orbit2_trace.py TRACE.json              # validate + print summary
    orbit2_trace.py --validate TRACE.json   # validate only (exit 1 on errors)
    orbit2_trace.py --top N TRACE.json      # show N top spans (default 15)

The input is the format written by orbit2::obs::write_chrome_trace():
{"traceEvents": [...], ...} with "X" (complete) span events, "M" metadata
events, and "C" counter events. Wall-clock spans live on pid 1, simulated
hwsim time on pid 2. The same file loads in chrome://tracing and Perfetto.

When the trace holds a traced backward pass (category "autograd": one
"autograd_backward" span per backward() call, and inside it one span per tape
node's backprop, named after its op and carrying its FLOPs), the summary adds
an autograd ledger: per node name, the count, total ms, share of
autograd_backward time and GF/s, plus the backward time no node span covers.

When the trace holds data sample builds ("data/sample_build" spans), the
summary adds a sample-build ledger: for each span nested inside a sample
build on the same thread ("data/grf", and within it "fft2d" and "ifft2d";
"gaussian_blur"), the count, total ms and share of sample-build time, plus
the sample-build time outside the fft2d, ifft2d and gaussian_blur spans
(the noise draw, the spectral filter, normalization and coarsening).
"""

import argparse
import bisect
import json
import sys
from collections import defaultdict

VALID_PHASES = {"X", "M", "C"}


def validate(trace):
    """Returns a list of schema-violation strings (empty = valid)."""
    errors = []
    if not isinstance(trace, dict):
        return ["top level is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            errors.append(f"{where}: unexpected ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing/empty name")
        if ph == "M":
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(ev.get(key), (int, float)):
                errors.append(f"{where}: missing numeric {key}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"{where}: X event missing numeric dur")
            elif dur < 0:
                errors.append(f"{where}: negative dur {dur}")
            if isinstance(ev.get("ts"), (int, float)) and ev["ts"] < 0:
                errors.append(f"{where}: negative ts {ev['ts']}")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            errors.append(f"{where}: C event missing args")
    return errors


def span_events(trace, simulated):
    want_pid = 2 if simulated else 1
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X" and ev.get("pid") == want_pid:
            yield ev


def autograd_ledger(trace):
    """Per-node-name rows of the traced backward passes (empty if none)."""
    backward_us = 0.0
    nodes = defaultdict(lambda: [0, 0.0, 0])  # name -> [count, us, flops]
    for ev in span_events(trace, simulated=False):
        if ev.get("cat") != "autograd":
            continue
        if ev["name"] == "autograd_backward":
            backward_us += ev["dur"]
            continue
        entry = nodes[ev["name"]]
        entry[0] += 1
        entry[1] += ev["dur"]
        entry[2] += ev.get("args", {}).get("flops", 0)
    if not nodes or backward_us <= 0.0:
        return []
    lines = [
        "== autograd ledger (backward node spans) ==",
        f"{'node':<24} {'count':>8} {'total ms':>10} {'share':>7} {'GF/s':>8}",
    ]
    spanned_us = 0.0
    for name, (count, total_us, flops) in sorted(
            nodes.items(), key=lambda kv: -kv[1][1]):
        spanned_us += total_us
        # FLOPs per microsecond / 1000 = GFLOP/s.
        rate = f"{flops / total_us / 1e3:8.2f}" if flops else f"{'-':>8}"
        lines.append(
            f"{name:<24} {count:>8} {total_us / 1000.0:>10.3f} "
            f"{total_us / backward_us:>7.3f} {rate}"
        )
    rest_us = backward_us - spanned_us
    lines.append(
        f"{'(unspanned)':<24} {'':>8} {rest_us / 1000.0:>10.3f} "
        f"{rest_us / backward_us:>7.3f} {'-':>8}"
    )
    lines.append(
        f"{'autograd_backward':<24} {'':>8} {backward_us / 1000.0:>10.3f} "
        f"{1.0:>7.3f} {'-':>8}"
    )
    lines.append("")
    return lines


SAMPLE_BUILD = "data/sample_build"
# Spans reported inside a sample build. data/grf contains the fft2d and
# ifft2d rows; the three leaves are what the unspanned line subtracts.
SAMPLE_CHILDREN = ("data/grf", "fft2d", "ifft2d", "gaussian_blur")
SAMPLE_LEAVES = ("fft2d", "ifft2d", "gaussian_blur")


def sample_build_ledger(trace):
    """Rows of the spans nested in data/sample_build spans (empty if none)."""
    builds = defaultdict(list)  # (pid, tid) -> [(ts, end)]
    for ev in span_events(trace, simulated=False):
        if ev["name"] == SAMPLE_BUILD:
            builds[(ev["pid"], ev["tid"])].append(
                (ev["ts"], ev["ts"] + ev["dur"]))
    if not builds:
        return []
    starts = {}
    for key, spans in builds.items():
        spans.sort()
        starts[key] = [ts for ts, _ in spans]
    build_us = sum(end - ts for spans in builds.values() for ts, end in spans)
    children = {name: [0, 0.0] for name in SAMPLE_CHILDREN}
    for ev in span_events(trace, simulated=False):
        entry = children.get(ev["name"])
        key = (ev["pid"], ev["tid"])
        if entry is None or key not in builds:
            continue
        # The latest build starting at or before this span must contain it.
        i = bisect.bisect_right(starts[key], ev["ts"]) - 1
        if i < 0 or ev["ts"] + ev["dur"] > builds[key][i][1]:
            continue
        entry[0] += 1
        entry[1] += ev["dur"]
    if build_us <= 0.0:
        return []
    lines = [
        "== sample-build ledger (spans inside data/sample_build) ==",
        f"{'span':<24} {'count':>8} {'total ms':>10} {'share':>7}",
    ]
    for name in SAMPLE_CHILDREN:
        count, total_us = children[name]
        lines.append(
            f"{name:<24} {count:>8} {total_us / 1000.0:>10.3f} "
            f"{total_us / build_us:>7.3f}"
        )
    rest_us = build_us - sum(children[name][1] for name in SAMPLE_LEAVES)
    lines.append(
        f"{'(unspanned)':<24} {'':>8} {rest_us / 1000.0:>10.3f} "
        f"{rest_us / build_us:>7.3f}"
    )
    total_builds = sum(len(spans) for spans in builds.values())
    lines.append(
        f"{SAMPLE_BUILD:<24} {total_builds:>8} {build_us / 1000.0:>10.3f} "
        f"{1.0:>7.3f}"
    )
    lines.append("")
    return lines


def summarize(trace, top_n):
    lines = []
    for simulated, label in ((False, "wall clock"), (True, "simulated clock")):
        by_name = defaultdict(lambda: [0, 0.0])  # name -> [count, total_us]
        by_cat = defaultdict(float)
        for ev in span_events(trace, simulated):
            entry = by_name[ev["name"]]
            entry[0] += 1
            entry[1] += ev["dur"]
            by_cat[ev.get("cat", "?")] += ev["dur"]
        if not by_name:
            continue
        lines.append(f"== spans ({label}) ==")
        lines.append(f"{'name':<32} {'count':>8} {'total ms':>12} {'mean us':>12}")
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1][1])
        for name, (count, total_us) in ranked[:top_n]:
            lines.append(
                f"{name:<32} {count:>8} {total_us / 1000.0:>12.3f} "
                f"{total_us / count:>12.1f}"
            )
        if len(ranked) > top_n:
            lines.append(f"... {len(ranked) - top_n} more span names")
        lines.append("")
        lines.append(f"== per-category totals ({label}) ==")
        for cat, total_us in sorted(by_cat.items(), key=lambda kv: -kv[1]):
            lines.append(f"{cat:<32} {total_us / 1000.0:>12.3f} ms")
        lines.append("")

    lines.extend(autograd_ledger(trace))
    lines.extend(sample_build_ledger(trace))

    counters = [
        ev for ev in trace["traceEvents"]
        if ev.get("ph") == "C" and isinstance(ev.get("args"), dict)
    ]
    if counters:
        lines.append("== counters ==")
        for ev in sorted(counters, key=lambda e: e["name"]):
            for key, value in ev["args"].items():
                lines.append(f"{ev['name']:<40} {key} = {value}")
        lines.append("")

    other = trace.get("otherData", {})
    if other:
        lines.append("== otherData ==")
        for key, value in sorted(other.items()):
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--validate", action="store_true",
                        help="validate only; no summary output")
    parser.add_argument("--top", type=int, default=15, metavar="N",
                        help="top span names to show (default 15)")
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot parse {args.trace}: {err}", file=sys.stderr)
        return 1

    errors = validate(trace)
    if errors:
        for err in errors[:50]:
            print(f"error: {err}", file=sys.stderr)
        if len(errors) > 50:
            print(f"error: ... {len(errors) - 50} more", file=sys.stderr)
        return 1

    n_events = len(trace["traceEvents"])
    print(f"{args.trace}: valid ({n_events} events)")
    if not args.validate:
        summary = summarize(trace, args.top)
        if summary:
            print()
            print(summary)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # e.g. `orbit2_trace.py t.json | head`; exit quietly like cat does.
        sys.exit(0)
