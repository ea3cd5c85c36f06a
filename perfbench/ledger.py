"""Arithmetic of the perfbench ledger: percentiles, span trees and self time.

Pure functions over plain lists and dicts, so that perfbench/tests can
check them without building anything.
"""

import math

# Percentiles a tail may be reported at, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def median(values):
    """Median of a non-empty sample (mean of the middle pair when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def nearest_rank(values, percentile):
    """Nearest-rank percentile (0 < percentile <= 100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail(values, min_beyond=10):
    """The highest percentile in TAIL_PERCENTILES with at least `min_beyond`
    samples beyond it, as (percentile, value); None when even the median
    has fewer than `min_beyond` samples beyond it.

    A sample is beyond the nearest-rank percentile p when its rank exceeds
    ceil(p/100 * n), so p qualifies when n - ceil(p/100 * n) >= min_beyond.
    """
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= min_beyond:
            best = p
    if best is None:
        return None
    return best, nearest_rank(values, best)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_time(span, children):
    """A span's duration minus the part of it its child spans cover.

    `span` and each child are (start, end); children are clipped to the
    parent, and overlapping children are counted once.
    """
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)


def build_tree(spans):
    """Nests spans by interval containment.

    `spans` are dicts with "name", "start" and "dur" from one thread.
    Returns the roots; every node gains a "children" list. A span that
    starts inside another and ends no later than it is its descendant.
    """
    nodes = [dict(s, children=[]) for s in spans]
    nodes.sort(key=lambda s: (s["start"], -s["dur"]))
    roots, stack = [], []
    for node in nodes:
        end = node["start"] + node["dur"]
        while stack and stack[-1]["start"] + stack[-1]["dur"] < end:
            stack.pop()
        (stack[-1]["children"] if stack else roots).append(node)
        stack.append(node)
    return roots


def walk(roots):
    """Every node of a span forest, parents before children."""
    pending = list(reversed(roots))
    while pending:
        node = pending.pop()
        yield node
        pending.extend(reversed(node["children"]))


def node_self_time(node):
    start = node["start"]
    return self_time((start, start + node["dur"]),
                     [(c["start"], c["start"] + c["dur"])
                      for c in node["children"]])


def self_times_by(roots, classify):
    """Sums self time per key, where `classify(name)` maps a span to its key
    (a layer) or None to leave it out."""
    totals = {}
    for node in walk(roots):
        key = classify(node["name"])
        if key is not None:
            totals[key] = totals.get(key, 0.0) + node_self_time(node)
    return totals
