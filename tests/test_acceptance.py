"""End-to-end acceptance checks for the whole package.

Each test prints a single "criterion N (...): PASS/FAIL" line on the real
stderr stream so the verdicts are visible even under output capture. The
heavier experiments (4-6) train real aligners on synthetic corpora and take
a few minutes in total.
"""

import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sidalign.align import (
    NegativeBank,
    NessaConfig,
    PairBatch,
    loss_m1,
    loss_m2,
    loss_m3,
    side_maps,
    split_train_val,
    train,
)
from sidalign.cli import main
from sidalign.data import VoiceProfile, build_all_profiles
from sidalign.logit import (
    build_weight_matrix,
    compute_fusion_transform,
    fusion_maps,
    logit_score_direct,
    logit_score_fused_batch,
)
from sidalign.metrics import (
    cosine_scorer,
    eer,
    frr_at_far,
    gap_recovery,
    relative_impact,
    roc,
    score_trials,
)
from sidalign.mlp import mlp_init
from sidalign.numerics import Prng
from sidalign.synth import SynthConfig, generate, make_trials

from gradcheck import gradient_check


VERDICT_LINES: list[str] = []


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"criterion {number} ({name}): {status}{suffix}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


def unit_rows(prng, n, d):
    rows = prng.standard_normal(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_weight_matrix(prng, n, d, model):
    rows = unit_rows(prng, n, d)
    profiles = [VoiceProfile(f"s{i}", model, rows[i]) for i in range(n)]
    return build_weight_matrix(profiles, [f"s{i}" for i in range(n)])


# ---------------------------------------------------------------------------
# Criterion 1: fused scoring reproduces brute-force logit scoring


def test_criterion_1_fused_direct_equivalence():
    prng = Prng(100)
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    for d in (8, 32):
        for _ in range(10):
            n = int(prng.integers(2 * d + 4, 4 * d))
            wx = random_weight_matrix(prng, n, d, "X")
            wy = random_weight_matrix(prng, n, d, "Y")
            wy.speaker_order = wx.speaker_order
            fusion = compute_fusion_transform(wx, wy)
            pairs = [(prng.standard_normal(d), prng.standard_normal(d))
                     for _ in range(50)]
            e, r = (np.stack(side) for side in zip(*pairs))
            direct = [logit_score_direct(a, b, wx, wy) for a, b in pairs]
            fused = logit_score_fused_batch(e, r, fusion)
            worst = max(worst, float(np.max(np.abs(fused - direct))))
            cases += len(pairs)
    elapsed = time.monotonic() - t0
    ok = cases == 1000 and worst <= 1e-6 and elapsed < 10.0
    verdict(1, "fused scoring matches direct scoring", ok,
            f"max abs diff {worst:.3g}, {elapsed:.1f}s")
    assert ok, (worst, elapsed)


# ---------------------------------------------------------------------------
# Criterion 2: analytic gradients of all three objectives


def test_criterion_2_gradient_correctness():
    d, h, n_batch = 6, 10, 4
    t0 = time.monotonic()
    worst = 0.0
    for point in range(3):
        prng = Prng(500 + point)
        batch = PairBatch(
            [f"b{i}" for i in range(n_batch)],
            *(unit_rows(prng, n_batch, d) for _ in range(4)),
        )
        bank = NegativeBank(["z0", "z1"], unit_rows(prng, 2, d))
        f1 = mlp_init([d, h, h, d], seed=900 + point)
        f2 = mlp_init([d, h, h, d], seed=950 + point)
        w = np.array([5.0])

        _, g1 = loss_m1(f1, batch)
        worst = max(worst, gradient_check(
            f1.parameters(), lambda: loss_m1(f1, batch)[0], g1, seed=point))

        _, g2 = loss_m2(f1, batch)
        worst = max(worst, gradient_check(
            f1.parameters(), lambda: loss_m2(f1, batch)[0], g2, seed=point))

        _, ga, gb, dw = loss_m3(f1, f2, float(w[0]), batch, bank, 1.0, 0.5, 0.1)
        params = f1.parameters() + f2.parameters() + [w]
        grads = ga + gb + [np.array([dw])]
        worst = max(worst, gradient_check(
            params,
            lambda: loss_m3(f1, f2, float(w[0]), batch, bank, 1.0, 0.5, 0.1,
                            want_grads=False)[0],
            grads, seed=point))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    verdict(2, "analytic gradients match finite differences", ok,
            f"max rel err {worst:.3g}, {elapsed:.1f}s")
    assert ok, (worst, elapsed)


# ---------------------------------------------------------------------------
# Criterion 3: metric implementations against exhaustive oracles


def test_criterion_3_metric_oracles():
    prng = Prng(300)
    ok = True
    for _ in range(200):
        while True:
            n = int(prng.integers(2, 21))
            labels = (prng.uniform(0, 1, n) < 0.5).astype(int)
            if 0 < labels.sum() < n:
                break
        scores = np.round(prng.uniform(-1, 1, n), 1)
        target = float(prng.uniform(0.05, 0.95, 1)[0])
        curve = roc(scores, labels)
        got, thr = frr_at_far(curve, target)

        tar = scores[labels == 1]
        imp = scores[labels == 0]
        best = None
        for t in list(np.unique(scores)) + [np.inf]:
            fa = float(np.mean(imp >= t))
            fr = float(np.mean(tar < t))
            if fa <= target and (best is None or fr < best):
                best = fr
        ok = ok and abs(got - best) <= 1e-12
        # the ROC itself must agree with enumeration at every threshold
        for i, t in enumerate(curve.thresholds):
            ok = ok and curve.far[i] == float(np.mean(imp >= t))
            ok = ok and curve.frr[i] == float(np.mean(tar < t))

    ok = ok and relative_impact(0.37, 0.37) == 0.0
    ok = ok and relative_impact(0.1, 0.6) == -500.0
    verdict(3, "roc / frr-at-far / impact match exhaustive oracles", ok)
    assert ok


# ---------------------------------------------------------------------------
# Shared experiment helpers (criteria 4-6)


def vec_maps(corpus):
    prof = {p.speaker_id: p.vector for p in corpus.profiles}
    run = {r.utterance_id: r.vector for r in corpus.records
           if r.split == "runtime"}
    return prof, run


def curve_of(trials, prof, run, enroll_map=None, runtime_map=None):
    ts = score_trials(trials, cosine_scorer, prof, run, enroll_map, runtime_map)
    return roc(ts.scores, ts.labels01())


def make_corpora(seed, distortion, nx, ny, gain, n_train, n_eval, d=32,
                 n_enroll=25):
    def cfg(s, n):
        return SynthConfig(
            n_speakers=n, n_enroll_utts=n_enroll, n_runtime_utts=3,
            latent_dim=d, embed_dim=d, within_noise_x=nx, within_noise_y=ny,
            distortion_x=distortion, distortion_y=distortion,
            nonlinear_gain=gain, seed=s, model_seed=1000 + seed)

    cx_t, cy_t, _ = generate(cfg(seed * 10 + 1, n_train))
    cx_e, cy_e, _ = generate(cfg(seed * 10 + 2, n_eval))
    trials = make_trials(cy_e, 1000, 1000, seed * 10 + 3)
    return cx_t, cy_t, cx_e, cy_e, trials


# ---------------------------------------------------------------------------
# Criterion 4: a linear view change is recovered almost completely


def test_criterion_4_linear_recovery():
    t0 = time.monotonic()
    seed = 0
    cx_t, cy_t, cx_e, cy_e, trials = make_corpora(
        seed, "orthogonal", nx=0.35, ny=0.2, gain=1.5,
        n_train=2000, n_eval=500)
    px, rx = vec_maps(cx_e)
    py, ry = vec_maps(cy_e)
    eer_sym_x = eer(curve_of(trials, px, rx))
    eer_sym_y = eer(curve_of(trials, py, ry))
    eer_raw = eer(curve_of(trials, px, ry))

    tp, vp = split_train_val(cx_t, cy_t, 0.1, seed)
    cfg = NessaConfig(variant="m2", epochs=20, steps_per_epoch=50,
                      batch_size=256, hidden=64, seed=seed)
    ckpt = train(cfg, tp, vp)
    eer_aligned = eer(curve_of(trials, px, ry, *side_maps(ckpt)))
    elapsed = time.monotonic() - t0

    ok = (eer_aligned <= eer_sym_x
          and abs(eer_aligned - eer_sym_y) <= 0.015
          and 0.40 <= eer_raw <= 0.60
          and elapsed < 600.0)
    verdict(4, "orthogonal view change recovered by the profile mapper", ok,
            f"EER aligned {100 * eer_aligned:.1f}% / sym-X {100 * eer_sym_x:.1f}% "
            f"/ sym-Y {100 * eer_sym_y:.1f}% / raw {100 * eer_raw:.1f}%, "
            f"{elapsed:.0f}s")
    assert ok, (eer_aligned, eer_sym_x, eer_sym_y, eer_raw, elapsed)


# ---------------------------------------------------------------------------
# Criteria 5 and 6 share three seeds of trained systems on the nonlinear corpus


@pytest.fixture(scope="module")
def nonlinear_results():
    # The 15 trainings do not depend on each other: two spawned worker
    # processes run them, each with one BLAS thread (the variable is read
    # when a worker imports numpy), while this process builds the next
    # seed's corpora. Results are gathered in the fixed run order.
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(
                max_workers=2,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            seeds = {seed: nonlinear_seed(seed, pool) for seed in (0, 1, 2)}
            return {seed: collect(*pending) for seed, pending in seeds.items()}
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def nonlinear_seed(seed, pool):
    """One seed's baselines, and its five trainings submitted to ``pool``."""
    cx_t, cy_t, cx_e, cy_e, trials = make_corpora(
        seed, "mlp_nonlinear", nx=0.45, ny=0.25, gain=1.5,
        n_train=10_000, n_eval=500)
    px, rx = vec_maps(cx_e)
    py, ry = vec_maps(cy_e)

    base_frr, _ = frr_at_far(curve_of(trials, px, rx), 0.05)

    def impact(curve):
        frr, _ = frr_at_far(curve, 0.05)
        return relative_impact(base_frr, frr)

    res = {
        "sym_y": impact(curve_of(trials, py, ry)),
        "raw": impact(curve_of(trials, px, ry)),
    }

    profs_x = build_all_profiles(cx_t, "X")
    profs_y = build_all_profiles(cy_t, "Y")
    order = [p.speaker_id for p in profs_x][:1000]
    wx = build_weight_matrix(profs_x, order)
    wy = build_weight_matrix(profs_y, order)
    fusion = compute_fusion_transform(wx, wy)
    res["logit"] = impact(curve_of(trials, px, ry, *fusion_maps(fusion)))

    tp, vp = split_train_val(cx_t, cy_t, 0.1, seed)
    runs = {
        "m1": NessaConfig(variant="m1", epochs=12, steps_per_epoch=200,
                          batch_size=256, hidden=256, seed=seed),
        "m2": NessaConfig(variant="m2", epochs=12, steps_per_epoch=200,
                          batch_size=256, hidden=256, seed=seed),
        "m3": NessaConfig(variant="m3", epochs=12, steps_per_epoch=200,
                          batch_size=256, bank_size=512, hidden=256,
                          seed=seed),
        "m3_no_contrastive": NessaConfig(
            variant="m3", alpha=0.0, epochs=12, steps_per_epoch=200,
            batch_size=256, bank_size=512, hidden=256, seed=seed),
        "m3_no_anchors": NessaConfig(
            variant="m3", beta=0.0, gamma=0.0, epochs=12,
            steps_per_epoch=200, batch_size=256, bank_size=512,
            hidden=256, seed=seed),
    }
    futures = {name: pool.submit(train, cfg, tp, vp) for name, cfg in runs.items()}
    return res, futures, impact, (trials, px, ry)


def collect(res, futures, impact, scoring):
    """The seed's impacts, with each trained aligner's in run order."""
    trials, px, ry = scoring
    for name, future in futures.items():
        res[name] = impact(curve_of(trials, px, ry, *side_maps(future.result())))
    return res


@pytest.mark.slow
def test_criterion_5_ordering_and_gap_recovery(nonlinear_results):
    per_seed = []
    for seed, r in nonlinear_results.items():
        strict_raw = r["raw"] < r["logit"]
        strict_1 = r["logit"] < r["m1"]
        strict_2 = r["m1"] < r["m2"]
        weak_3 = r["m2"] <= r["m3"]
        rec_2 = gap_recovery(r["m2"], r["sym_y"]) >= 0.6
        rec_3 = gap_recovery(r["m3"], r["sym_y"]) >= 0.6
        per_seed.append({
            "strict_raw": strict_raw, "strict_1": strict_1,
            "strict_2": strict_2, "weak_3": weak_3,
            "rec": rec_2 and rec_3,
        })
    votes = {k: sum(s[k] for s in per_seed) for k in per_seed[0]}
    # the strict inequalities inside the aligner family are a soft criterion:
    # they must hold on at least 2 of the 3 seeds
    ok = (votes["strict_raw"] == 3
          and votes["strict_1"] >= 2
          and votes["strict_2"] >= 2
          and votes["weak_3"] >= 2
          and votes["rec"] >= 2)
    summary = "; ".join(
        f"seed {s}: " + " ".join(
            f"{k}={'+' if v[k] else '-'}" for k in v)
        for s, v in zip(nonlinear_results, per_seed))
    verdict(5, "impact ordering raw < logit < m1 < m2 <= m3 with >=60% recovery",
            ok, summary)
    assert ok, (nonlinear_results, per_seed)


@pytest.mark.slow
def test_criterion_6_ablation_direction(nonlinear_results):
    no_contrastive_votes = 0
    no_anchor_votes = 0
    for r in nonlinear_results.values():
        if r["m3_no_contrastive"] <= r["m3"]:
            no_contrastive_votes += 1
        if r["m3_no_anchors"] < r["m3"]:
            no_anchor_votes += 1
    ok = no_contrastive_votes >= 2 and no_anchor_votes >= 2
    verdict(6, "removing either loss component does not help", ok,
            f"no-contrastive <= default on {no_contrastive_votes}/3 seeds, "
            f"no-anchors < default on {no_anchor_votes}/3 seeds")
    assert ok, nonlinear_results


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical artifacts on repeated pipeline runs


def run_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    x, y = root / "x.jsonl", root / "y.jsonl"
    trials = root / "trials.tsv"
    ckpt = root / "ckpt.json"
    scores = root / "scores.tsv"
    report = root / "report.json"
    profiles = root / "profiles.jsonl"
    assert main([
        "synth", "--n-speakers", "200", "--n-enroll", "3", "--n-runtime", "2",
        "--latent-dim", "16", "--embed-dim", "16", "--seed", "5",
        "--out-x", str(x), "--out-y", str(y), "--trials-out", str(trials),
        "--n-target", "200", "--n-imposter", "200",
    ]) == 0
    assert main(["profile", "--embeddings", str(x), "--out", str(profiles)]) == 0
    assert main([
        "train", "--corpus-x", str(x), "--corpus-y", str(y), "--variant", "m3",
        "--epochs", "2", "--steps", "10", "--batch", "64", "--bank-size", "32",
        "--hidden", "16", "--seed", "5", "--out", str(ckpt),
    ]) == 0
    assert main([
        "score", "--scorer", "nessa-m3", "--trials", str(trials),
        "--corpus-x", str(x), "--corpus-y", str(y),
        "--checkpoint", str(ckpt), "--out", str(scores),
    ]) == 0
    assert main([
        "eval", "--scores", str(scores), "--scorer-id", "nessa-m3",
        "--out", str(report),
    ]) == 0
    return [x, y, trials, profiles, ckpt, scores, report]


def test_criterion_7_pipeline_determinism(tmp_path):
    first = run_pipeline(tmp_path / "first")
    second = run_pipeline(tmp_path / "second")
    mismatched = [a.name for a, b in zip(first, second)
                  if a.read_bytes() != b.read_bytes()]
    ok = not mismatched
    verdict(7, "repeated pipeline runs are byte-identical", ok,
            "all artifacts match" if ok else f"differs: {mismatched}")
    assert ok, mismatched


# ---------------------------------------------------------------------------
# Criterion 8: fused scoring cost does not grow with the speaker count


def test_criterion_8_fused_scoring_speaker_count_independence():
    d = 32
    n_trials = 100_000
    prng = Prng(800)
    e = unit_rows(prng, n_trials, d)
    r = unit_rows(prng, n_trials, d)

    times = {}
    for n_speakers in (1_000, 10_000):
        wx = random_weight_matrix(prng, n_speakers, d, "X")
        wy = random_weight_matrix(prng, n_speakers, d, "Y")
        wy.speaker_order = wx.speaker_order
        fusion = compute_fusion_transform(wx, wy)
        best = float("inf")
        for _ in range(3):
            t0 = time.monotonic()
            logit_score_fused_batch(e, r, fusion)
            best = min(best, time.monotonic() - t0)
        times[n_speakers] = best

    ratio = times[10_000] / times[1_000]
    ok = ratio <= 2.0
    verdict(8, "fused scoring time is independent of the speaker count", ok,
            f"N=1e4 / N=1e3 wall-time ratio {ratio:.2f}")
    assert ok, times
