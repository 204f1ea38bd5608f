import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidalign import metrics
from sidalign.data import BLOCK_ROWS, FLOAT_FMT, Trial, TrialSet
from sidalign.errors import (
    BaselineZero,
    DegenerateGap,
    DegenerateTrialSet,
    DimensionMismatch,
    UnknownId,
    ZeroVector,
)
from sidalign.metrics import (
    RocCurve,
    cosine_scorer,
    eer,
    evaluate,
    frr_at_far,
    gap_recovery,
    relative_impact,
    roc,
    score_trials,
)
from sidalign.logit import WeightMatrix, compute_fusion_transform, logit_score_fused_batch
from sidalign.mlp import forward, mlp_init
from sidalign.numerics import Prng, length_normalize


def brute_force_best_frr(scores, labels, target_far):
    """Oracle: try every candidate threshold, keep the lowest admissible FRR.

    Candidate thresholds are every score plus one value above the maximum,
    accept rule score >= threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tar = scores[labels == 1]
    imp = scores[labels == 0]
    best = None
    for t in list(np.unique(scores)) + [np.inf]:
        fa = np.mean(imp >= t)
        fr = np.mean(tar < t)
        if fa <= target_far and (best is None or fr < best):
            best = fr
    return best


def reference_roc(scores, labels):
    """The per-threshold count sweep, O(n * unique): the oracle for roc."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tar = scores[labels == 1]
    imp = scores[labels == 0]
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    far = np.array([np.count_nonzero(imp >= t) for t in thresholds]) / len(imp)
    frr = np.array([np.count_nonzero(tar < t) for t in thresholds]) / len(tar)
    return thresholds, far, frr


def reference_eer(curve):
    """The point-by-point crossing search: the oracle for eer."""
    diff = curve.far - curve.frr
    for i in range(len(diff) - 1):
        d0, d1 = diff[i], diff[i + 1]
        if d0 == 0:
            return float(curve.far[i])
        if d0 > 0 >= d1:
            t = d0 / (d0 - d1)
            return float(curve.frr[i] + t * (curve.frr[i + 1] - curve.frr[i]))
    return float(curve.far[-1])


def reference_score_trials(trialset, scorer, profile_vectors, runtime_vectors):
    """One stacked row per trial, looked up trial by trial: the oracle for
    score_trials."""
    p_rows, r_rows = [], []
    for t in trialset.trials:
        if t.enroll_speaker_id not in profile_vectors:
            raise UnknownId(f"unknown enroll speaker {t.enroll_speaker_id!r}")
        if t.test_utterance_id not in runtime_vectors:
            raise UnknownId(f"unknown test utterance {t.test_utterance_id!r}")
        p_rows.append(profile_vectors[t.enroll_speaker_id])
        r_rows.append(runtime_vectors[t.test_utterance_id])
    scores = scorer(np.stack(p_rows), np.stack(r_rows))
    return [float(s) for s in scores]


@st.composite
def scored_labels(draw, max_n=300):
    """(scores, labels) with both labels present; half the draws take their
    scores from a handful of values, so ties are common."""
    n = draw(st.integers(2, max_n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
    labels[i], labels[j + (j >= i)] = 0, 1
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        values = draw(st.lists(finite, min_size=1, max_size=4))
        element = st.sampled_from(values)
    else:
        element = finite
    scores = draw(st.lists(element, min_size=n, max_size=n))
    return scores, labels


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_trialset(prng, n_max=20):
    while True:
        n = int(prng.integers(2, n_max + 1))
        labels = (prng.uniform(0, 1, n) < 0.5).astype(int)
        if 0 < labels.sum() < n:
            break
    # duplicate scores on purpose to exercise ties
    scores = np.round(prng.uniform(-1, 1, n), 1)
    return scores, labels


class TestRoc:
    def test_endpoints(self):
        curve = roc([0.9, 0.1], [1, 0])
        assert curve.far[0] == 1.0 and curve.frr[0] == 0.0
        assert curve.far[-1] == 0.0 and curve.frr[-1] == 1.0

    def test_monotone(self):
        prng = Prng(0)
        for _ in range(50):
            scores, labels = random_trialset(prng)
            curve = roc(scores, labels)
            assert np.all(np.diff(curve.far) <= 0)
            assert np.all(np.diff(curve.frr) >= 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateTrialSet):
            roc([0.5, 0.6], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DegenerateTrialSet):
            roc([0.9, bad, 0.1, 0.2], [1, 1, 0, 0])

    @given(scored_labels())
    def test_equals_references(self, drawn):
        # one draw checks roc against the count sweep and eer against the
        # crossing search, bit for bit
        scores, labels = drawn
        curve = roc(scores, labels)
        thresholds, far, frr = reference_roc(scores, labels)
        assert same_bits(curve.thresholds, thresholds)
        assert same_bits(curve.far, far)
        assert same_bits(curve.frr, frr)
        n_target = sum(labels)
        assert (curve.n_target, curve.n_imposter) == (n_target, len(labels) - n_target)
        assert eer(curve) == reference_eer(curve)

    def test_roc_million_trials(self):
        # the per-threshold sweep would take hours here
        prng = Prng(11)
        n = 1_000_000
        trials = [Trial("s0", "u0", "imposter"), Trial("s0", "u1", "target")] * (n // 2)
        scores = (prng.standard_normal(n) + np.arange(n) % 2).tolist()
        t0 = time.monotonic()
        report = evaluate(TrialSet(trials, scores), "million")
        elapsed = time.monotonic() - t0
        assert report["n_target"] == report["n_imposter"] == n // 2
        assert 0.25 < report["eer"] < 0.35
        assert elapsed < 10.0

    def test_tie_counts_as_accept(self):
        # imposter tied with the threshold is accepted
        curve = roc([0.5, 0.5], [1, 0])
        i = int(np.nonzero(curve.thresholds == 0.5)[0][0])
        assert curve.far[i] == 1.0
        assert curve.frr[i] == 0.0


class TestFrrAtFar:
    def test_matches_exhaustive_oracle(self):
        prng = Prng(1)
        for _ in range(200):
            scores, labels = random_trialset(prng)
            target = float(prng.uniform(0.05, 0.95, 1)[0])
            curve = roc(scores, labels)
            got, thr = frr_at_far(curve, target)
            want = brute_force_best_frr(scores, labels, target)
            assert got == pytest.approx(want, abs=1e-12)

    def test_threshold_realizes_reported_frr(self):
        prng = Prng(2)
        for _ in range(100):
            scores, labels = random_trialset(prng)
            curve = roc(scores, labels)
            frr, thr = frr_at_far(curve, 0.2)
            tar = np.asarray(scores)[np.asarray(labels) == 1]
            imp = np.asarray(scores)[np.asarray(labels) == 0]
            assert np.mean(imp >= thr) <= 0.2
            assert np.mean(tar < thr) == pytest.approx(frr, abs=1e-12)

    def test_bad_target(self):
        curve = roc([0.9, 0.1], [1, 0])
        with pytest.raises(DegenerateTrialSet):
            frr_at_far(curve, 0.0)


class TestEer:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert eer(roc(scores, labels)) == pytest.approx(0.0)

    def test_fully_swapped(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [1, 1, 0, 0]
        assert eer(roc(scores, labels)) == pytest.approx(1.0)

    def test_chance_level(self):
        prng = Prng(3)
        scores = prng.uniform(-1, 1, 20000)
        labels = (prng.uniform(0, 1, 20000) < 0.5).astype(int)
        assert eer(roc(scores, labels)) == pytest.approx(0.5, abs=0.02)

    def test_label_swap_symmetry(self):
        prng = Prng(4)
        scores = list(prng.uniform(-1, 1, 500))
        labels = (prng.uniform(0, 1, 500) < 0.4).astype(int)
        e1 = eer(roc(scores, labels))
        e2 = eer(roc([-s for s in scores], 1 - labels))
        assert e1 == pytest.approx(e2, abs=1e-9)

    def test_step_onto_the_line_interpolates(self):
        # FAR = FRR = 57/59 is first met at the threshold after a 31-target
        # tie; the crossing search interpolates from the point before it, and
        # 26/59 + (57/59 - 26/59) is one ulp below 57/59
        scores = [-1.0] * 2 + [2.0] * 57 + [0.0] * 26 + [1.0] * 31 + [3.0] * 2
        curve = roc(scores, [0] * 59 + [1] * 59)
        assert eer(curve) == reference_eer(curve) != 57 / 59

    def test_no_crossing_returns_last_far(self):
        # a curve that never meets the FAR = FRR line keeps the loop's answer
        curve = RocCurve(np.array([0.0, np.inf]), np.array([0.5, 0.25]),
                         np.array([0.0, 0.125]), 1, 1)
        assert eer(curve) == reference_eer(curve) == 0.25

    def test_between_zero_and_one(self):
        prng = Prng(5)
        for _ in range(100):
            scores, labels = random_trialset(prng)
            e = eer(roc(scores, labels))
            assert 0.0 <= e <= 1.0


class TestImpactAndRecovery:
    def test_no_change_zero_impact(self):
        assert relative_impact(0.4, 0.4) == 0.0

    def test_sixfold_increase(self):
        # FRR rising to six times the baseline is a -500% impact
        assert relative_impact(0.1, 0.6) == pytest.approx(-500.0)

    def test_improvement_positive(self):
        assert relative_impact(0.5, 0.4) == pytest.approx(20.0)

    def test_baseline_zero(self):
        with pytest.raises(BaselineZero):
            relative_impact(0.0, 0.1)

    def test_recovery_anchor_sixty_percent(self):
        assert gap_recovery(37.56, 62.67) == pytest.approx(0.599, abs=5e-4)

    def test_recovery_anchor_sixty_nine_percent(self):
        assert gap_recovery(43.62, 63.62) == pytest.approx(0.686, abs=5e-4)

    def test_recovery_degenerate(self):
        with pytest.raises(DegenerateGap):
            gap_recovery(10.0, 0.0)


class TestScoreTrials:
    def test_cosine_scorer_matches_scalar(self):
        prng = Prng(6)
        p = prng.standard_normal(20, 5)
        r = prng.standard_normal(20, 5)
        batch = cosine_scorer(p, r)
        for i in range(20):
            expect = float(p[i] @ r[i] /
                           (np.linalg.norm(p[i]) * np.linalg.norm(r[i])))
            assert batch[i] == pytest.approx(expect, abs=1e-12)

    def test_zero_row_raises(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        r = np.ones((2, 2))
        with pytest.raises(ZeroVector):
            cosine_scorer(p, r)
        with pytest.raises(ZeroVector):
            cosine_scorer(r, p)

    @pytest.mark.parametrize("big", [np.inf, 1e200])
    def test_infinite_norm_row_raises(self, big):
        # an inf entry, or finite entries whose norm overflows, must not
        # score NaN or 0
        p = np.array([[1.0, 0.0], [big, big]])
        r = np.ones((2, 2))
        with pytest.raises(ZeroVector):
            cosine_scorer(p, r)
        with pytest.raises(ZeroVector):
            cosine_scorer(r, p)

    def test_dead_network_rows_raise(self):
        # a fresh narrow net maps some inputs to exact zero rows (every
        # hidden unit off, zero biases); they must not score NaN
        mapped = forward(mlp_init([8, 8, 8, 8], 3), Prng(0).standard_normal(3000, 8))[0]
        assert np.any(np.linalg.norm(mapped, axis=1) == 0.0)
        with pytest.raises(ZeroVector):
            cosine_scorer(mapped, np.ones_like(mapped))

    def test_side_maps_run_once_per_side(self):
        trials = [Trial("a", "u1", "target"), Trial("a", "u2", "imposter"),
                  Trial("b", "u1", "imposter")]
        prof = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        run = {"u1": np.array([1.0, 1.0]), "u2": np.array([1.0, -1.0])}
        calls = []

        def swap(rows):
            calls.append(len(rows))
            return rows[:, ::-1]

        scored = score_trials(TrialSet(trials), cosine_scorer, prof, run, enroll_map=swap)
        assert calls == [2]
        plain = score_trials(TrialSet(trials), cosine_scorer,
                             {k: v[::-1] for k, v in prof.items()}, run)
        assert scored.scores.tolist() == plain.scores.tolist()

    def test_unknown_speaker(self):
        ts = TrialSet([Trial("ghost", "u1", "target")])
        with pytest.raises(UnknownId):
            score_trials(ts, cosine_scorer, {}, {"u1": np.ones(3)})

    def test_unknown_utterance(self):
        ts = TrialSet([Trial("a", "ghost", "target")])
        with pytest.raises(UnknownId, match="unknown test utterance 'ghost'"):
            score_trials(ts, cosine_scorer, {"a": np.ones(3)}, {"u1": np.ones(3)})

    def test_first_unknown_id_in_trial_order_named(self):
        ts = TrialSet([Trial("a", "u1", "target"), Trial("a", "ghost", "target"),
                       Trial("nobody", "u1", "imposter")])
        with pytest.raises(UnknownId, match="'ghost'"):
            score_trials(ts, cosine_scorer, {"a": np.ones(3)}, {"u1": np.ones(3)})

    @given(st.integers(1, 8), st.integers(1, 30), st.integers(1, 30),
           st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_equals_per_trial_stacking(self, d, n_prof, n_run, n_trials, seed):
        prng = Prng(seed)
        prof = {f"s{i}": prng.standard_normal(d) for i in range(n_prof)}
        run = {f"u{i}": prng.standard_normal(d) for i in range(n_run)}
        trials = TrialSet([
            Trial(f"s{int(prng.integers(0, n_prof))}", f"u{int(prng.integers(0, n_run))}",
                  "target" if i % 2 else "imposter")
            for i in range(n_trials)
        ])
        a, b = prng.standard_normal(d, d), prng.standard_normal(d, d)
        for scorer in (cosine_scorer, lambda p, r: cosine_scorer(p @ a, r @ b)):
            got = score_trials(trials, scorer, prof, run).scores
            assert got.tolist() == reference_score_trials(trials, scorer, prof, run)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(0, 12), st.integers(0, 12),
           st.integers(0, 60), st.booleans(), st.integers(0, 2**32 - 1))
    def test_bit_for_bit_with_reference(self, d, n_prof, n_run, n_trials, mapped, seed):
        # Ids come from pools two larger than the dicts, so a list repeats
        # ids, leaves dict entries unused and may name unknown ids; mapped
        # sides go through score_trials' side maps against dicts of the
        # mapped vectors.
        prng = Prng(seed)
        prof = {f"s{i}": prng.standard_normal(d) for i in range(n_prof)}
        run = {f"u{i}": prng.standard_normal(d) for i in range(n_run)}
        trials = TrialSet([
            Trial(f"s{int(prng.integers(0, n_prof + 2))}",
                  f"u{int(prng.integers(0, n_run + 2))}", "target" if i % 3 else "imposter")
            for i in range(n_trials)
        ])
        a, b = prng.standard_normal(d, d), prng.standard_normal(d, d)
        if mapped:
            score = lambda: score_trials(trials, cosine_scorer, prof, run,
                                         lambda v: v @ a, lambda v: v @ b)
            want_prof = dict(zip(prof, np.stack(list(prof.values())) @ a)) if prof else {}
            want_run = dict(zip(run, np.stack(list(run.values())) @ b)) if run else {}
        else:
            score = lambda: score_trials(trials, cosine_scorer, prof, run)
            want_prof, want_run = prof, run
        if not n_trials:
            assert score().scores.tolist() == []
            return
        try:
            want = reference_score_trials(trials, cosine_scorer, want_prof, want_run)
        except UnknownId as exc:
            with pytest.raises(UnknownId, match=f"^{re.escape(str(exc))}$"):
                score()
            return
        got = score()
        assert got.scores.dtype == np.float64 and got.scores.tolist() == want
        assert got.trials == trials.trials

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   3 * BLOCK_ROWS + 7])
    def test_blocked_cosine_is_cosine_of_gathered_rows(self, n, mapped):
        # the side maps give Fortran-ordered rows, whose own row norms may
        # reduce in another order than those of the gathered copies
        prng = Prng(n)
        prof = {f"s{i}": prng.standard_normal(32) for i in range(40)}
        run = {f"u{i}": prng.standard_normal(32) for i in range(90)}
        p_rows, r_rows = prng.integers(0, 40, n), prng.integers(0, 90, n)
        trials = TrialSet.of_columns([f"s{i}" for i in p_rows], [f"u{i}" for i in r_rows],
                                     ["target"] * n)
        a, b = prng.standard_normal(32, 32), prng.standard_normal(32, 32)
        maps = ((lambda v: np.asfortranarray(np.tanh(v @ a)),
                 lambda v: np.asfortranarray(v @ b)) if mapped else (None, None))
        p, r = np.stack(list(prof.values())), np.stack(list(run.values()))
        if mapped:
            p, r = maps[0](p), maps[1](r)
        got = score_trials(trials, cosine_scorer, prof, run, *maps).scores
        want = cosine_scorer(np.ascontiguousarray(p)[p_rows], np.ascontiguousarray(r)[r_rows])
        assert got.tobytes() == want.tobytes()

    def test_blocked_cosine_refuses_only_bad_rows_in_use(self):
        n = BLOCK_ROWS + 1
        prof = {"a": np.ones(3), "zero": np.zeros(3)}
        run = {"u": np.full(3, 2.0), "inf": np.full(3, np.inf)}
        unused = TrialSet.of_columns(["a"] * n, ["u"] * n, ["target"] * n)
        assert (score_trials(unused, cosine_scorer, prof, run).scores.tobytes()
                == cosine_scorer(np.ones((n, 3)), np.full((n, 3), 2.0)).tobytes())
        for enroll, test in (("zero", "u"), ("a", "inf")):
            used = TrialSet.of_columns(["a"] * (n - 1) + [enroll], ["u"] * (n - 1) + [test],
                                       ["target"] * n)
            with pytest.raises(ZeroVector, match="^cosine of a row whose norm is zero "
                                                 "or not finite$"):
                score_trials(used, cosine_scorer, prof, run)

    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   3 * BLOCK_ROWS + 7])
    def test_scorer_gets_gathered_rows_one_block_at_a_time(self, n):
        # equal blocks of at most BLOCK_ROWS trials, edges at n * i // k
        sizes = {1: [1], BLOCK_ROWS - 1: [BLOCK_ROWS - 1], BLOCK_ROWS: [BLOCK_ROWS],
                 BLOCK_ROWS + 1: [BLOCK_ROWS // 2, BLOCK_ROWS // 2 + 1],
                 3 * BLOCK_ROWS + 7: [385, 386, 386, 386]}[n]
        prng = Prng(n)
        prof = {f"s{i}": prng.standard_normal(8) for i in range(40)}
        run = {f"u{i}": prng.standard_normal(8) for i in range(90)}
        p_rows, r_rows = prng.integers(0, 40, n), prng.integers(0, 90, n)
        trials = TrialSet.of_columns([f"s{i}" for i in p_rows], [f"u{i}" for i in r_rows],
                                     ["target"] * n)
        calls = []

        def counting(p, r):
            calls.append((p, r))
            return cosine_scorer(p, r)

        got = score_trials(trials, counting, prof, run).scores
        assert [len(p) for p, _ in calls] == sizes
        p, r = np.stack(list(prof.values())), np.stack(list(run.values()))
        assert np.concatenate([p for p, _ in calls]).tobytes() == p[p_rows].tobytes()
        assert np.concatenate([r for _, r in calls]).tobytes() == r[r_rows].tobytes()
        assert got.tolist() == reference_score_trials(trials, cosine_scorer, prof, run)

    @pytest.mark.parametrize("d, n_speakers", [(16, 40), (32, 1000)])
    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 6,
                                   2000])
    def test_blocked_fused_scores_are_one_call_on_gathered_rows(self, n, d, n_speakers):
        # a matrix product per block: equal blocks keep the bits of one call,
        # where blocks of BLOCK_ROWS and a short tail rounded the tail apart
        prng = Prng(n + d)
        w = [WeightMatrix([f"s{i}" for i in range(n_speakers)],
                          length_normalize(prng.standard_normal(n_speakers, d)))
             for _ in "xy"]
        fusion = compute_fusion_transform(*w)
        prof = {f"s{i}": prng.standard_normal(d) for i in range(40)}
        run = {f"u{i}": prng.standard_normal(d) for i in range(90)}
        p_rows, r_rows = prng.integers(0, 40, n), prng.integers(0, 90, n)
        trials = TrialSet.of_columns([f"s{i}" for i in p_rows], [f"u{i}" for i in r_rows],
                                     ["target"] * n)
        got = score_trials(trials, lambda p, r: logit_score_fused_batch(p, r, fusion),
                           prof, run).scores
        p, r = np.stack(list(prof.values())), np.stack(list(run.values()))
        assert got.tobytes() == logit_score_fused_batch(p[p_rows], r[r_rows], fusion).tobytes()

    @pytest.mark.parametrize("scorer", [lambda p, r: 0.5,
                                        lambda p, r: cosine_scorer(p, r)[1:]],
                             ids=["scalar", "one-short"])
    def test_block_of_wrong_length_refused(self, scorer):
        n = BLOCK_ROWS + 1
        trials = TrialSet.of_columns(["a"] * n, ["u"] * n, ["target"] * n)
        with pytest.raises(DimensionMismatch,
                           match="^scores and trials must have equal length$"):
            score_trials(trials, scorer, {"a": np.ones(3)}, {"u": np.full(3, 2.0)})

    def test_scored_set_shares_columns(self):
        trials = TrialSet([Trial("a", "u1", "target"), Trial("a", "u2", "imposter")])
        scored = score_trials(trials, cosine_scorer, {"a": np.ones(2)},
                              {"u1": np.ones(2), "u2": np.array([1.0, -1.0])})
        for name in ("enroll_keys", "enroll_rows", "test_keys", "test_rows", "target"):
            assert getattr(scored, name) is getattr(trials, name)
        assert trials.scores is None

    def test_order_preserved(self):
        trials = [Trial("a", "u1", "target"), Trial("b", "u2", "imposter")]
        prof = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        run = {"u1": np.array([1.0, 0.0]), "u2": np.array([1.0, 0.0])}
        scored = score_trials(TrialSet(trials), cosine_scorer, prof, run)
        assert scored.scores[0] == pytest.approx(1.0)
        assert scored.scores[1] == pytest.approx(0.0)

    def test_large_batch_under_ten_seconds(self):
        prng = Prng(7)
        n = 200_000
        prof = {f"s{i}": prng.standard_normal(32) for i in range(500)}
        run = {f"u{i}": prng.standard_normal(32) for i in range(500)}
        trials = [
            Trial(f"s{int(prng.integers(0, 500))}",
                  f"u{int(prng.integers(0, 500))}",
                  "target" if i % 2 else "imposter")
            for i in range(n)
        ]
        t0 = time.monotonic()
        scored = score_trials(TrialSet(trials), cosine_scorer, prof, run)
        elapsed = time.monotonic() - t0
        assert len(scored.scores) == n
        assert elapsed < 10.0


class TestStacked:
    @given(st.sampled_from([np.float64, np.float32, np.int64]), st.integers(1, 40),
           st.integers(1, 9), st.booleans())
    def test_values_and_dtype_of_np_stack(self, dtype, n, d, as_lists):
        rows = Prng(n * d).standard_normal(n, d).astype(dtype)
        vectors = {f"k{i}": row.tolist() if as_lists else row
                   for i, row in enumerate(rows)}
        want = np.stack(list(vectors.values()))
        blocks = []  # what a side map is handed
        mapped = metrics._stacked(vectors, lambda block: blocks.append(block) or block)
        assert blocks[0].dtype == want.dtype and blocks[0].shape == want.shape
        assert blocks[0].tobytes() == want.tobytes()
        for got in (mapped, metrics._stacked(vectors, None)):
            assert got.dtype == np.float64
            assert got.tobytes() == want.astype(np.float64).tobytes()

    def test_ragged_rows_raise_value_error(self):
        with pytest.raises(ValueError):
            metrics._stacked({"a": np.zeros(3), "b": np.zeros(4)}, None)

    def test_no_vectors(self):
        assert metrics._stacked({}, None) is None


class TestEvaluate:
    def scored_set(self, seed=8, n=400):
        prng = Prng(seed)
        labels = ["target" if i % 2 else "imposter" for i in range(n)]
        scores = [float(prng.uniform(0, 1, 1)[0]) + (0.4 if l == "target" else 0)
                  for i, l in enumerate(labels)]
        trials = [Trial(f"s{i}", f"u{i}", l) for i, l in enumerate(labels)]
        return TrialSet(trials, scores)

    def test_report_fields(self):
        report = evaluate(self.scored_set(), "demo")
        assert report["scorer_id"] == "demo"
        assert report["n_target"] == report["n_imposter"] == 200
        assert len(report["per_far"]) == 3
        for entry in report["per_far"]:
            assert entry["far"] <= entry["target_far"]

    def test_impact_and_recovery_blocks(self):
        base = evaluate(self.scored_set(seed=9), "base")
        baseline_frrs = {FLOAT_FMT % e["target_far"]: max(e["frr"], 0.05)
                         for e in base["per_far"]}
        candidate = {FLOAT_FMT % e["target_far"]: 50.0 for e in base["per_far"]}
        report = evaluate(self.scored_set(seed=10), "sys",
                          baseline_frrs=baseline_frrs,
                          candidate_impacts=candidate)
        for entry in report["per_far"]:
            assert "relative_impact" in entry
        assert set(report["gap_recovery"]) == set(candidate)

    @given(scored_labels())
    def test_equals_roc_of_labels01(self, drawn):
        scores, labels = drawn
        ts = TrialSet([Trial(f"s{i}", f"u{i}", "target" if label else "imposter")
                       for i, label in enumerate(labels)], scores)
        report = evaluate(ts, "x")
        curve = roc(scores, ts.labels01())
        assert report["eer"] == eer(curve)
        assert (report["n_target"], report["n_imposter"]) == (curve.n_target,
                                                                curve.n_imposter)
        for entry in report["per_far"]:
            assert (entry["frr"], entry["threshold"]) == frr_at_far(curve,
                                                                    entry["target_far"])

    def test_unscored_rejected(self):
        ts = TrialSet([Trial("a", "u", "target")])
        with pytest.raises(DegenerateTrialSet):
            evaluate(ts, "x")
