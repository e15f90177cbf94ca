"""Span arithmetic for the benchmark's traced runs.

perfbench_replay writes one line per timed call: name, event id, parent line
index (-1 for a root), start and end in nanoseconds. Spans nest: a trace
event's root span ("workload.event") holds the calls the replay made to
apply it, and a call may hold calls made inside it (the settle loop holds
the replica set's shipping calls).
"""

import collections
import math

Span = collections.namedtuple("Span", "name event parent start end")

REPLAY_ROOT = "workload.event"
SETUP_ROOT = "workload.setup"


def load(path):
    spans = []
    with open(path) as handle:
        for line in handle:
            name, event, parent, start, end = line.rstrip("\n").split("\t")
            spans.append(Span(name, int(event), int(parent), int(start), int(end)))
    return spans


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def roots(spans):
    """Index of the root span above each span."""
    root = []
    for i, span in enumerate(spans):
        root.append(i if span.parent < 0 else root[span.parent])
    return root


def layer_of(name):
    return name.split(".", 1)[0]


def percentile(values, p):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1]


def call_stats(spans, replays):
    """Per call name: calls and busy (inclusive) time per replay, self
    time per replay, and the p50/p90 of one call's duration."""
    own = self_times(spans)
    durations = collections.defaultdict(list)
    self_ns = collections.Counter()
    for span, mine in zip(spans, own):
        durations[span.name].append(span.end - span.start)
        self_ns[span.name] += mine
    replays = max(1, replays)
    stats = {}
    for name, values in durations.items():
        stats[name] = {
            "calls": len(values) / replays,
            "busy_ms": sum(values) / 1e6 / replays,
            "self_ms": self_ns[name] / 1e6 / replays,
            "us_p50": percentile(values, 0.50) / 1e3,
            "us_p90": percentile(values, 0.90) / 1e3,
        }
    return stats


def replay_ns(spans):
    """Total wall time of the replays: the summed trace-event root spans."""
    return sum(s.end - s.start for s in spans
               if s.parent < 0 and s.name == REPLAY_ROOT)


def layer_table(spans, replays):
    """Per layer, self time within the replays, its share of replay time,
    calls per replay and the p50/p90 of one call. Set-up spans are left
    out: set-up time is its own end-to-end metric."""
    own = self_times(spans)
    root = roots(spans)
    total = replay_ns(spans)
    rows = collections.defaultdict(lambda: {"self_ns": 0, "durations": []})
    for i, span in enumerate(spans):
        if spans[root[i]].name != REPLAY_ROOT:
            continue
        row = rows[layer_of(span.name)]
        row["self_ns"] += own[i]
        row["durations"].append(span.end - span.start)
    replays = max(1, replays)
    table = {}
    for layer, row in rows.items():
        table[layer] = {
            "self_ms": row["self_ns"] / 1e6 / replays,
            "share": row["self_ns"] / total if total else 0.0,
            "calls": len(row["durations"]) / replays,
            "us_p50": percentile(row["durations"], 0.50) / 1e3,
            "us_p90": percentile(row["durations"], 0.90) / 1e3,
        }
    return table


def replay_self_shares(spans):
    """Share of replay time spent in each call name's own code."""
    own = self_times(spans)
    root = roots(spans)
    total = replay_ns(spans)
    shares = collections.Counter()
    for i, span in enumerate(spans):
        if spans[root[i]].name == REPLAY_ROOT:
            shares[span.name] += own[i]
    return {name: ns / total if total else 0.0 for name, ns in shares.items()}
