"""Arithmetic shared by the benchmark and the comparison helper.

Kept free of sidalign imports so the tests can check it on hand-made inputs.
"""

from __future__ import annotations

import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

# A tail percentile needs this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With n sorted samples, the sample at 1-based rank n - 10 has exactly ten
    samples above it, so it is the nearest-rank percentile 100 (n - 10) / n.
    Below 20 samples that percentile would sit under the median, so the
    median is reported instead, as percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * TAIL_MIN_BEYOND:
        return median(ordered), 50.0
    rank = n - TAIL_MIN_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / n


class Op:
    """One attempted operation; fails if it raises or any check fails."""

    def __init__(self, name: str):
        self.name = name
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


@dataclass
class Tally:
    """Counts operations attempted and failed; feeds ``failed_frac``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @contextmanager
    def op(self, name: str):
        """Count one operation. An exception inside marks it failed and is
        re-raised so the caller can abandon the rest of the repetition."""
        op = Op(name)
        self.attempted += 1
        try:
            yield op
        except Exception as exc:
            op.problems.append(
                f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            raise
        finally:
            if op.problems:
                self.failed += 1
                self.problems.extend(f"{name}: {p}" for p in op.problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# Paired comparison of a parent and a change

GAIN_WIN_SHARE = 0.9


@dataclass
class Verdict:
    metric: str
    better: str
    parent_median: float
    change_median: float
    parent_spread: float  # IQR as a share of the parent's median
    wins: int
    losses: int
    pairs: int
    worse_by: float  # share of the parent median the change is worse by
    bound: float | None
    verdict: str


def compare_pairs(metric: str, parent, change, better: str,
                  bound: float | None) -> Verdict:
    """Judge one metric on one workload from paired runs.

    ``parent[i]`` and ``change[i]`` come from pair i (same seed). A gain needs
    at least nine tenths of the pairs won (ties count for neither side) and
    medians further apart than the parent's interquartile distance. Without a
    gain, the change must be no worse than ``bound`` times the parent median;
    when the parent's own spread is wider than the bound the result is
    "unresolved" unless every change run beats every parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, p_med, q3 = quartiles(parent)
    c_med = median(change)
    spread = (q3 - q1) / abs(p_med) if p_med else float("inf")
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    n = len(parent)
    improved = sign * (p_med - c_med) > 0
    if improved and wins >= GAIN_WIN_SHARE * n and abs(c_med - p_med) > (q3 - q1):
        verdict = "gain"
    elif bound is None:
        verdict = "no bound"
    elif all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "no regression"
    elif spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return Verdict(metric, better, p_med, c_med, spread, wins, losses, n,
                   worse_by, bound, verdict)
