"""Small, dependency-free statistics shared by the benchmark and its tests.

Every latency the benchmark reports is a median plus a *tail*: the
highest percentile that still has at least ten samples beyond it, printed
with its percentile and sample count so a reader can judge it.
"""

from __future__ import annotations

import statistics

#: samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` sorted samples that is the sample at 0-based index
    ``n - TAIL_BEYOND - 1`` (percentile ``100 * (n - TAIL_BEYOND) / n``).
    Fewer than ``TAIL_BEYOND + 1`` samples support no tail: the maximum is
    returned at percentile 100 so the caller still sees the worst case.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    index = n - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n


def backlog_grows(due, done, connections: int) -> bool:
    """True if an open-loop phase left a growing backlog.

    ``due[i]`` is when request ``i`` was due and ``done[i]`` when its
    response completed (``None``: never).  The backlog at an instant is
    the number of requests already due but not yet answered.  It grows
    when, at the last due instant, more requests are outstanding than the
    connections can carry plus one waiting, *and* more than at the
    phase's midpoint — a steady server drains to a flat level, an
    overloaded one keeps accumulating.
    """
    if len(due) < 4:
        return False
    finished = [float("inf") if d is None else d for d in done]

    def outstanding(instant: float) -> int:
        return sum(
            1 for start, end in zip(due, finished) if start <= instant < end
        )

    middle = outstanding(due[len(due) // 2])
    last = outstanding(due[-1])
    return last > connections + 1 and last > middle


def quartile_spread(values) -> float:
    """Inter-quartile range as a share of the median (0 for constants)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return 0.0 if q2 == 0 else (q3 - q1) / abs(q2)
