#!/usr/bin/env python3
"""Summarise a BEACON Chrome/Perfetto trace on the command line.

Usage:
    tools/trace_summary.py out/multi_tenant_qos_small_fcfs.trace.json

Prints, without needing the Perfetto UI: per-track span counts and
busy time (sum of 'X' durations), instant/counter event counts, the
busiest tracks first, and the ring-buffer drop counter so truncated
traces are obvious. Uses only the Python standard library.
"""

import argparse
import collections
import json
import sys


def load_tracks(trace):
    """Map tid -> track name from the metadata events."""
    names = {}
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev["tid"]] = ev["args"]["name"]
    return names


def summarise(trace):
    tracks = load_tracks(trace)
    spans = collections.Counter()
    busy_us = collections.Counter()
    instants = collections.Counter()
    counters = collections.Counter()
    t_min, t_max = None, 0.0
    for ev in trace["traceEvents"]:
        ph = ev.get("ph")
        if ph not in ("X", "i", "C"):
            continue
        track = tracks.get(ev["tid"], f"tid{ev['tid']}")
        ts = float(ev["ts"])
        t_min = ts if t_min is None else min(t_min, ts)
        if ph == "X":
            spans[track] += 1
            busy_us[track] += float(ev.get("dur", 0))
            t_max = max(t_max, ts + float(ev.get("dur", 0)))
        elif ph == "i":
            instants[track] += 1
            t_max = max(t_max, ts)
        else:
            counters[track] += 1
            t_max = max(t_max, ts)
    return tracks, spans, busy_us, instants, counters, t_min, t_max


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="*.trace.json file")
    parser.add_argument("--top", type=int, default=20,
                        help="tracks to list (default 20)")
    args = parser.parse_args()

    with open(args.trace) as handle:
        trace = json.load(handle)

    (tracks, spans, busy_us, instants,
     counters, t_min, t_max) = summarise(trace)
    other = trace.get("otherData", {})

    span_total = sum(spans.values())
    window = (t_max - t_min) if t_min is not None else 0.0
    print(f"{args.trace}: {len(tracks)} tracks, "
          f"{span_total} spans, {sum(instants.values())} instants, "
          f"{sum(counters.values())} counter samples")
    if t_min is not None:
        print(f"time window: {t_min:.3f} .. {t_max:.3f} us "
              f"({window:.3f} us)")
    dropped = int(other.get("dropped_events", 0))
    if dropped:
        print(f"WARNING: ring buffer dropped {dropped} events — "
              f"oldest activity is missing; raise "
              f"TraceSink::default_capacity")

    ranked = sorted(set(spans) | set(instants) | set(counters),
                    key=lambda t: -busy_us[t])
    print(f"\n{'track':<28}{'spans':>8}{'busy us':>12}"
          f"{'busy %':>8}{'inst':>6}{'ctr':>6}")
    for track in ranked[:args.top]:
        share = (100.0 * busy_us[track] / window) if window else 0.0
        print(f"{track:<28}{spans[track]:>8}"
              f"{busy_us[track]:>12.3f}{share:>7.1f}%"
              f"{instants[track]:>6}{counters[track]:>6}")
    if len(ranked) > args.top:
        print(f"... {len(ranked) - args.top} more tracks "
              f"(--top to widen)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
