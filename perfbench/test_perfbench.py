"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from stats import Tally, compare_pairs, quartiles, tail  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    layer_metrics,
    span_times,
    totals_by_name,
    train_run_label,
)


# -- tail percentile rule -----------------------------------------------------


def test_tail_has_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct = tail(values)
    assert value == 90
    assert pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_percentile_depends_on_sample_count():
    value, pct = tail(list(range(1, 41)))
    assert (value, pct) == (30, 75.0)
    value, pct = tail(list(range(1, 21)))
    assert (value, pct) == (10, 50.0)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0] * 10
    assert tail(values) == tail(sorted(values))


def test_tail_below_twenty_samples_is_the_median():
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert tail(list(range(19))) == (9.0, 50.0)
    with pytest.raises(ValueError):
        tail([])


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


# -- self time with nested spans ------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]
    name_id = [0, 1, 2, 3]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    incl, self_t = span_times(name_id, start, end, parent)
    assert incl.tolist() == [10.0, 4.0, 1.0, 3.0]
    assert self_t.tolist() == [3.0, 3.0, 1.0, 3.0]
    assert self_t.sum() == incl[0]


def test_tracer_records_nesting_and_request_ids():
    t = Tracer()
    t.active = True
    t.request_id = 7
    with t.span("outer"):
        with t.span("inner"):
            time.sleep(0.002)
        with t.span("inner"):
            pass
    t.request_id = 8
    with t.span("outer"):
        pass
    assert list(t.parent) == [-1, 0, 0, -1]
    assert list(t.request) == [7, 7, 7, 8]
    totals = totals_by_name(t)
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["calls"] == 2
    outer, inner = totals["outer"], totals["inner"]
    assert outer["self"] == pytest.approx(outer["incl"] - inner["incl"])
    assert inner["self"] == inner["incl"] >= 0.002


def test_paused_tracer_records_nothing():
    t = Tracer()
    wrapped = t._wrap(lambda x: x + 1, "f")
    t.active = True
    with t.paused():
        assert wrapped(1) == 2
    assert len(t.start) == 0
    assert wrapped(1) == 2
    assert len(t.start) == 1


def test_layer_metrics_per_repetition():
    totals = {
        "mlp.forward": {"calls": 4, "incl": 2.0, "self": 2.0},
        "align.train.m3": {"calls": 2, "incl": 10.0, "self": 1.0},
        "cli.score": {"calls": 2, "incl": 3.0, "self": 0.5},
    }
    counters = {"mlp.flop": 8e9, "align.steps.m3": 200, "align.train_incl_s.m3": 10.0}
    m = layer_metrics(totals, counters, reps=2)
    assert m["mlp.forward.s"] == 1.0
    assert m["mlp.forward.calls"] == 2
    assert m["align.train.s.m3"] == 5.0  # inclusive
    assert m["cli.score.s"] == 1.5  # inclusive
    assert m["align.step_ms.m3"] == 50.0
    assert m["mlp.gflop"] == 4.0
    assert m["mlp.gflop_per_s"] == 4.0  # 8 GFLOP over 2 s of forward
    assert m["cli.synth.s"] == 0.0  # never called


def test_install_wraps_every_import_site_and_uninstall_restores():
    import sidalign
    from sidalign import align, data, mlp, numerics, synth

    orig_forward, orig_norm = mlp.forward, numerics.length_normalize
    t = Tracer()
    t.install()
    try:
        assert align.forward is mlp.forward is not orig_forward
        assert synth.length_normalize is data.length_normalize is numerics.length_normalize
        assert sidalign.length_normalize is numerics.length_normalize is not orig_norm
        numerics.length_normalize(np.array([3.0, 4.0]))
        assert t.names == ["numerics.length_normalize"]
    finally:
        t.uninstall()
    assert align.forward is orig_forward and mlp.forward is orig_forward
    assert synth.length_normalize is orig_norm and sidalign.length_normalize is orig_norm


def test_train_run_labels():
    from sidalign.align import NessaConfig

    assert train_run_label(NessaConfig(variant="m1")) == "m1"
    assert train_run_label(NessaConfig(variant="m3")) == "m3"
    assert train_run_label(NessaConfig(variant="m3", alpha=0.0)) == "m3_no_contrastive"
    assert train_run_label(NessaConfig(variant="m3", beta=0.0, gamma=0.0)) == "m3_no_anchors"


# -- failed_frac accounting -----------------------------------------------------


def test_tally_counts_raised_and_failed_checks_once_per_operation():
    tally = Tally()
    with tally.op("fine") as op:
        op.check(True, "never")
    with tally.op("two bad checks") as op:
        op.check(False, "first")
        op.check(False, "second")
    with pytest.raises(ZeroDivisionError):
        with tally.op("raises"):
            1 / 0
    assert tally.attempted == 3
    assert tally.failed == 2
    assert tally.failed_frac == pytest.approx(2 / 3)
    assert any(p.startswith("raises: raised ZeroDivisionError") for p in tally.problems)
    assert "two bad checks: first" in tally.problems


def test_tally_with_nothing_attempted_is_all_failed():
    assert Tally().failed_frac == 1.0


class _FlakyWorkload:
    """Repetition 1 raises outside any finer operation; the others pass one."""

    def rep(self, state, tally, tracer, index):
        if index == 1:
            raise RuntimeError("between operations")
        with tally.op("inner") as op:
            op.check(True, "never")
        return index


def test_repetition_that_raises_outside_an_operation_counts_as_failed(capsys):
    from run import run_plan

    tally = Tally()
    gaps = []
    reps, traced, rss_mb = run_plan(_FlakyWorkload(), None, tally, Tracer(),
                                    [False, False, False], gaps.append)
    assert reps == [0, 2] and traced == []
    assert gaps == [0, 1, 2]  # the failed repetition is followed by its gap too
    assert rss_mb > 0
    # three repetitions and two inner operations attempted; one repetition failed
    assert (tally.attempted, tally.failed) == (5, 1)
    assert tally.problems[0].startswith("repetition 1: raised RuntimeError")
    assert "between operations" in capsys.readouterr().err


# -- comparison rule --------------------------------------------------------------


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    change = [p - 1.0 for p in PARENT]
    assert compare_pairs("wall_s", PARENT, change, "lower", 0.1).verdict == "gain"
    # Nine wins, one loss: still a gain.
    change[0] = PARENT[0] + 0.5
    v = compare_pairs("wall_s", PARENT, change, "lower", 0.1)
    assert (v.wins, v.losses, v.verdict) == (9, 1, "gain")
    # Eight wins: not a gain, but no regression either.
    change[1] = PARENT[1] + 0.5
    assert compare_pairs("wall_s", PARENT, change, "lower", 0.1).verdict == "no regression"


def test_small_consistent_gain_inside_the_spread_is_not_a_gain():
    change = [p - 0.01 for p in PARENT]
    v = compare_pairs("wall_s", PARENT, change, "lower", 0.1)
    assert v.wins == 10
    assert v.verdict == "no regression"


def test_regression_beyond_the_bound_for_both_directions():
    slower = [p * 1.2 for p in PARENT]
    assert compare_pairs("wall_s", PARENT, slower, "lower", 0.1).verdict == "regression"
    assert compare_pairs("wall_s", PARENT, slower, "lower", 0.25).verdict == "no regression"
    assert compare_pairs("trials_per_s", PARENT, slower, "higher", 0.1).verdict == "gain"
    fewer = [p * 0.8 for p in PARENT]
    assert compare_pairs("trials_per_s", PARENT, fewer, "higher", 0.1).verdict == "regression"


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.05 for v in noisy]
    v = compare_pairs("wall_s", noisy, change, "lower", 0.1)
    assert v.parent_spread > 0.1
    assert v.verdict == "unresolved"
    # Every change run better than every parent run resolves it.
    change = [4.0] * 10
    assert compare_pairs("wall_s", noisy, change, "lower", 0.1).verdict == "gain"


def test_ties_count_for_neither_side():
    v = compare_pairs("wall_s", PARENT, list(PARENT), "lower", 0.1)
    assert (v.wins, v.losses, v.verdict) == (0, 0, "no regression")
