"""The statistics reported over the item gaps of a run's passes.

Kept free of ztwo imports so that run.py can use it before it knows
whether the program is there.
"""

import math
from statistics import median


def tail_rank(n):
    """(percentile, 0-based index into n sorted values) of the item tail.

    The tail is the highest percentile, in steps of 0.1, that leaves at
    least ten items beyond it: p99.7 for 4,055 items, p98.7 for 809.
    """
    for tenths in range(999, 0, -1):
        rank = math.ceil(n * tenths / 1000)
        if n - rank >= 10:
            return tenths / 10, rank - 1
    raise ValueError(f"need more than 10 items for a tail, got {n}")


def item_medians(passes_gaps):
    """Each item's median gap over passes that produced the same items.

    A median rather than the fastest pass: the minimum of more passes is
    lower, and how many passes fit in a run depends on the host's speed.
    """
    if len({len(g) for g in passes_gaps}) != 1:
        raise ValueError("passes produced different numbers of items")
    return [median(col) for col in zip(*passes_gaps)]


def gap_stats(gaps):
    """(p50 ms, tail ms, tail percentile) of a list of item gaps in seconds."""
    gaps = sorted(gaps)
    pct, idx = tail_rank(len(gaps))
    return median(gaps) * 1e3, gaps[idx] * 1e3, pct
