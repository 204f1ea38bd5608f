import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sidalign.data import BLOCK_ROWS, FIELDS, Corpus
from sidalign.errors import ConfigInvalid, InsufficientData
from sidalign.metrics import cosine_scorer, eer, roc, score_trials
from sidalign.numerics import Prng, length_normalize
from sidalign.synth import DISTORTIONS, Distortion, SynthConfig, generate, make_trials


def small_config(**overrides):
    base = dict(
        n_speakers=20,
        n_enroll_utts=3,
        n_runtime_utts=2,
        latent_dim=8,
        embed_dim=8,
        within_noise_x=0.2,
        within_noise_y=0.1,
        distortion_x="orthogonal",
        distortion_y="orthogonal",
        seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


def vec_maps(corpus):
    prof = dict(zip(corpus.profiles.speakers, corpus.profiles.vectors))
    run = {r.utterance_id: r.vector for r in corpus.records if r.split == "runtime"}
    return prof, run


def unit(v):
    return v / np.linalg.norm(v)


def reference_generate(config):
    """Reference: one utterance and one view at a time, each map applied to a
    column vector. Returns [(speaker, utterance, split, vector)] per view."""
    prng = Prng(config.seed)
    model_prng = Prng(config.seed if config.model_seed is None else config.model_seed)
    views = [(sigma, Distortion(kind, config.latent_dim, config.embed_dim, model_prng,
                                config.nonlinear_gain), [])
             for sigma, kind in ((config.within_noise_x, config.distortion_x),
                                 (config.within_noise_y, config.distortion_y))]
    for i in range(config.n_speakers):
        speaker = f"s{config.seed}_{i:05d}"
        z = unit(prng.standard_normal(config.latent_dim))
        for u in range(config.n_enroll_utts + config.n_runtime_utts):
            split = "enroll" if u < config.n_enroll_utts else "runtime"
            for sigma, dist, rows in views:
                x = unit(z + sigma * prng.standard_normal(config.latent_dim))
                rows.append((speaker, f"{speaker}_u{u:04d}", split, reference_map(dist, x)))
    return [rows for _, _, rows in views]


def reference_map(dist, x):
    p = dist.params
    if dist.kind == "identity":
        return unit(x)
    if dist.kind == "orthogonal":
        return unit(p["q"] @ x)
    if dist.kind == "affine":
        return unit(p["a"] @ x + p["b"])
    return unit(p["w2"] @ np.tanh(p["w1"] @ x))


def block_generate(config):
    """Reference: the vectors of both views drawn one speaker at a time (z,
    then its (utt, view, dim) noise), stacked, and mapped out of place."""
    prng = Prng(config.seed)
    model_prng = Prng(config.seed if config.model_seed is None else config.model_seed)
    dists = [Distortion(kind, config.latent_dim, config.embed_dim, model_prng,
                        config.nonlinear_gain)
             for kind in (config.distortion_x, config.distortion_y)]
    n_utts = config.n_enroll_utts + config.n_runtime_utts
    draws = [(prng.standard_normal(config.latent_dim),
              prng.standard_normal(n_utts, 2, config.latent_dim))
             for _ in range(config.n_speakers)]
    z = length_normalize(np.stack([zi for zi, _ in draws]))
    noise = np.stack([block for _, block in draws])  # (speaker, utt, view, dim)
    views = []
    for k, (sigma, dist) in enumerate(zip((config.within_noise_x, config.within_noise_y),
                                          dists)):
        noisy = z[:, None, :] + sigma * noise[:, :, k, :]
        views.append(block_map(dist, length_normalize(noisy.reshape(-1, config.latent_dim))))
    return views


def block_map(dist, u):
    p = dist.params
    if dist.kind == "identity":
        out = u
    elif dist.kind == "orthogonal":
        out = u @ p["q"].T
    elif dist.kind == "affine":
        out = u @ p["a"].T + p["b"]
    else:
        out = np.tanh(u @ p["w1"].T) @ p["w2"].T
    return length_normalize(out)


@st.composite
def synth_configs(draw):
    kinds = draw(st.lists(st.sampled_from(DISTORTIONS), min_size=2, max_size=2))
    latent = draw(st.integers(1, 8))
    embed = latent if "identity" in kinds else draw(st.integers(latent, latent + 4))
    noise_y = draw(st.floats(0, 1))
    return SynthConfig(
        n_speakers=draw(st.integers(1, 40)), n_enroll_utts=draw(st.integers(1, 6)),
        n_runtime_utts=draw(st.integers(1, 6)), latent_dim=latent, embed_dim=embed,
        within_noise_x=noise_y + draw(st.floats(0, 1)), within_noise_y=noise_y,
        distortion_x=kinds[0], distortion_y=kinds[1],
        nonlinear_gain=draw(st.floats(0.5, 3)), seed=draw(st.integers(0, 2**32)),
        model_seed=draw(st.none() | st.integers(0, 2**32)))


def multi_block_config(n_speakers, n_enroll_utts, n_runtime_utts, distortions):
    """A config whose corpus generate makes in more than one block."""
    assert n_speakers * (n_enroll_utts + n_runtime_utts) > BLOCK_ROWS
    return SynthConfig(n_speakers=n_speakers, n_enroll_utts=n_enroll_utts,
                       n_runtime_utts=n_runtime_utts, latent_dim=6, embed_dim=6,
                       within_noise_x=0.4, within_noise_y=0.2, distortion_x=distortions[0],
                       distortion_y=distortions[1], nonlinear_gain=2.0,
                       seed=n_speakers, model_seed=7)


def reference_trials(corpus_y, n_target, n_imposter, seed):
    """Reference: materialise every (speaker, foreign utterance) pair."""
    prng = Prng(seed)
    runtime = [r for r in corpus_y.records if r.split == "runtime"]
    target_pool = [(r.speaker_id, r.utterance_id) for r in runtime]
    imposter_pool = [(spk, r.utterance_id)
                     for spk in dict.fromkeys(r.speaker_id for r in runtime)
                     for r in runtime if r.speaker_id != spk]
    t_idx = prng.choice(len(target_pool), n_target, replace=False)
    i_idx = prng.choice(len(imposter_pool), n_imposter, replace=False)
    return ([(*target_pool[j], "target") for j in sorted(t_idx)]
            + [(*imposter_pool[j], "imposter") for j in sorted(i_idx)])


def trial_tuples(ts):
    return [(t.enroll_speaker_id, t.test_utterance_id, t.label) for t in ts.trials]


class TestReference:
    @pytest.mark.parametrize("distortion", DISTORTIONS)
    def test_generate_matches_reference(self, distortion):
        cfg = small_config(n_speakers=30, n_enroll_utts=4, n_runtime_utts=3,
                           latent_dim=8, embed_dim=8, distortion_x=distortion,
                           distortion_y=distortion, seed=5, model_seed=11)
        corpora = generate(cfg)[:2]
        for corpus, ref in zip(corpora, reference_generate(cfg)):
            assert ([(r.speaker_id, r.utterance_id, r.split) for r in corpus.records]
                    == [row[:3] for row in ref])
            worst = max(np.max(np.abs(r.vector - row[3]))
                        for r, row in zip(corpus.records, ref))
            assert worst <= 1e-12

    @given(synth_configs())
    # three blocks of 43-44 speakers; blocks of one speaker each, the last one
    # too; speakers of more than BLOCK_ROWS utterances. Each distortion maps
    # each view once.
    @example(multi_block_config(131, 5, 3, ("identity", "orthogonal")))
    @example(multi_block_config(131, 5, 3, ("mlp_nonlinear", "affine")))
    @example(multi_block_config(3, 150, 130, ("orthogonal", "identity")))
    @example(multi_block_config(3, 150, 130, ("affine", "mlp_nonlinear")))
    @example(multi_block_config(2, 400, 200, ("identity", "affine")))
    @example(multi_block_config(2, 400, 200, ("mlp_nonlinear", "orthogonal")))
    def test_generate_matches_block_reference_bit_for_bit(self, cfg):
        for corpus, vectors in zip(generate(cfg)[:2], block_generate(cfg)):
            assert corpus.vectors.tobytes() == vectors.tobytes()

    def test_generate_peak_memory_is_bounded(self):
        # The reference's stacked per-speaker draws and out-of-place steps
        # peak at about 5.6 times the output vectors.
        cfg = SynthConfig(n_speakers=1000, n_enroll_utts=25, n_runtime_utts=3,
                          latent_dim=32, embed_dim=32, within_noise_x=0.45,
                          within_noise_y=0.25, distortion_x="mlp_nonlinear",
                          distortion_y="mlp_nonlinear", seed=1, model_seed=2)
        tracemalloc.start()
        try:
            cx, cy, _ = generate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * (cx.vectors.nbytes + cy.vectors.nbytes)

    def test_trials_match_reference_in_any_record_order(self):
        _, cy, _ = generate(small_config(n_speakers=25, n_runtime_utts=3))
        # drop some runtime utterances so speakers have unequal pools
        uneven = [r for i, r in enumerate(cy.records) if r.split == "enroll" or i % 4]
        orders = {
            "grouped": uneven,
            "interleaved": sorted(uneven, key=lambda r: r.utterance_id[-4:]),
            "reversed": uneven[::-1],
        }
        for name, records in orders.items():
            corpus = Corpus(*([getattr(r, f) for r in records] for f in FIELDS))
            for seed in (0, 1, 2):
                got = trial_tuples(make_trials(corpus, 30, 200, seed))
                assert got == reference_trials(corpus, 30, 200, seed), name


class TestGenerate:
    def test_identity_views_equal(self):
        cfg = small_config(n_speakers=2, n_enroll_utts=1, n_runtime_utts=1,
                           within_noise_x=0.0, within_noise_y=0.0,
                           distortion_x="identity", distortion_y="identity")
        cx, cy, _ = generate(cfg)
        for rx, ry in zip(cx.records, cy.records):
            np.testing.assert_array_equal(rx.vector, ry.vector)

    def test_orthogonal_preserves_cosines(self):
        cfg = small_config(within_noise_x=0.0, within_noise_y=0.0)
        cx, cy, gt = generate(cfg)
        q = gt.distortion_x.params["q"]
        for rx, ry in zip(cx.records, cy.records):
            # same zero-noise preimage u: view_X = Q_x u, so Q_x^T view_X = u
            u = q.T @ rx.vector
            qy = gt.distortion_y.params["q"]
            np.testing.assert_allclose(qy @ u, ry.vector, atol=1e-9)

    def test_pairedness(self):
        cx, cy, _ = generate(small_config())
        keys_x = {(r.speaker_id, r.utterance_id, r.split) for r in cx.records}
        keys_y = {(r.speaker_id, r.utterance_id, r.split) for r in cy.records}
        assert keys_x == keys_y
        assert len(keys_x) == len(cx.records)

    def test_determinism(self):
        cx1, _, _ = generate(small_config())
        cx2, _, _ = generate(small_config())
        for a, b in zip(cx1.records, cx2.records):
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_profiles_built(self):
        cx, cy, _ = generate(small_config())
        assert len(cx.profiles) == 20
        assert len(cy.profiles) == 20
        assert (abs(np.linalg.norm(cx.profiles.vectors, axis=1) - 1) < 1e-9).all()

    def test_invalid_config(self):
        with pytest.raises(ConfigInvalid):
            generate(small_config(n_speakers=0))
        with pytest.raises(ConfigInvalid):
            generate(small_config(within_noise_x=0.1, within_noise_y=0.2))

    @pytest.mark.parametrize("overrides, message", [
        (dict(latent_dim=0), "dimensions must be >= 1"),
        (dict(within_noise_x=-0.1), "noise std-devs must be >= 0"),
        (dict(distortion_y="warp"), "unknown distortion 'warp'"),
        (dict(distortion_x="identity", embed_dim=10), "needs latent_dim == embed_dim"),
        (dict(embed_dim=6), "embed_dim must be >= latent_dim"),
        (dict(within_noise_x=float("nan")), "within_noise_x = nan is not finite"),
        (dict(within_noise_y=float("inf")), "within_noise_y = inf is not finite"),
        (dict(nonlinear_gain=float("nan")), "nonlinear_gain = nan is not finite"),
        # a config file's int may exceed every float
        (dict(within_noise_x=10**400), "within_noise_x = 1000* is not finite"),
        (dict(distortion_y="mlp_nonlinear", nonlinear_gain=1e308),
         r"nonlinear_gain = 1e\+308 overflows"),
    ], ids=["dimension", "noise", "distortion", "identity-dims", "embed-below-latent",
            "noise-x-nan", "noise-y-inf", "gain-nan", "noise-x-int-beyond-float",
            "gain-overflows-weights"])
    def test_config_refused(self, overrides, message):
        with pytest.raises(ConfigInvalid, match=message):
            generate(small_config(**overrides))

    def test_spoiled_x_is_named_when_y_is_spoiled_in_an_earlier_block(self):
        # At d = 1 a row's norm overflows where its noise times sigma squares
        # beyond float64, for about 1 row in 500 here. generate makes three
        # blocks of 100 speakers, and seed 11 spoils Y first in block 1 and X
        # first in block 2: X is named, as when all of X is made before Y.
        sigma = 4.3e153
        cfg = small_config(n_speakers=300, n_enroll_utts=2, n_runtime_utts=2, latent_dim=1,
                           embed_dim=1, within_noise_x=sigma, within_noise_y=sigma, seed=11)
        draw = Prng(11).standard_normal(300, 9)
        with np.errstate(over="ignore"):
            first_x, first_y = (int(np.argmax(np.isinf((draw[:, view::2] * sigma) ** 2)
                                              .any(axis=1))) for view in (1, 2))
        assert first_y // 100 < first_x // 100
        with pytest.raises(ConfigInvalid, match=r"^view X \(distortion_x = 'orthogonal', "
                                                r"within_noise_x = 4\.3e\+153\): cannot "
                                                r"normalize a row of norm inf$"):
            generate(cfg)

    def test_model_seed_shares_distortions(self):
        a = small_config(seed=1, model_seed=99)
        b = small_config(seed=2, model_seed=99)
        _, _, gta = generate(a)
        _, _, gtb = generate(b)
        np.testing.assert_array_equal(gta.distortion_x.params["q"],
                                      gtb.distortion_x.params["q"])

    def test_identical_views_when_zero_noise_symmetric_scores_match(self):
        cfg = small_config(within_noise_x=0.0, within_noise_y=0.0,
                           distortion_x="identity", distortion_y="identity")
        cx, cy, _ = generate(cfg)
        trials = make_trials(cy, 10, 10, seed=5)
        px, rx = vec_maps(cx)
        py, ry = vec_maps(cy)
        sx = score_trials(trials, cosine_scorer, px, rx).scores
        sy = score_trials(trials, cosine_scorer, py, ry).scores
        assert sx.tolist() == sy.tolist()

    def test_noise_monotone_eer(self):
        eers = []
        for noise in (0.1, 0.4, 0.9):
            cfg = small_config(n_speakers=60, within_noise_x=noise,
                               within_noise_y=noise, seed=3)
            _, cy, _ = generate(cfg)
            trials = make_trials(cy, 100, 100, seed=4)
            py, ry = vec_maps(cy)
            ts = score_trials(trials, cosine_scorer, py, ry)
            eers.append(eer(roc(ts.scores, ts.labels01())))
        assert eers[0] <= eers[1] <= eers[2]


class TestMakeTrials:
    def test_exhaustive_two_speakers(self):
        cfg = small_config(n_speakers=2, n_runtime_utts=1)
        _, cy, _ = generate(cfg)
        ts = make_trials(cy, 2, 2, seed=0)
        assert len(ts.trials) == 4
        labels = sorted(t.label for t in ts.trials)
        assert labels == ["imposter", "imposter", "target", "target"]

    def test_insufficient_data(self):
        cfg = small_config(n_speakers=2, n_runtime_utts=1)
        _, cy, _ = generate(cfg)
        with pytest.raises(InsufficientData):
            make_trials(cy, 2, 3, seed=0)

    @pytest.mark.parametrize("n_speakers, n_target, message", [
        (1, 1, "need at least 2 speakers"),
        (2, 5, "requested 5 target trials, only 4 available"),
    ], ids=["one-speaker", "targets"])
    def test_too_few_refused(self, n_speakers, n_target, message):
        _, cy, _ = generate(small_config(n_speakers=n_speakers, n_runtime_utts=2))
        with pytest.raises(InsufficientData, match=message):
            make_trials(cy, n_target, 0, seed=0)

    @pytest.mark.parametrize("n_target, n_imposter", [(-1, 2), (2, -3)])
    def test_negative_count_refused(self, n_target, n_imposter):
        _, cy, _ = generate(small_config())
        with pytest.raises(ConfigInvalid, match="must be >= 0"):
            make_trials(cy, n_target, n_imposter, seed=0)

    def test_determinism(self):
        _, cy, _ = generate(small_config())
        a = make_trials(cy, 20, 20, seed=9)
        b = make_trials(cy, 20, 20, seed=9)
        assert a.trials == b.trials

    def test_no_duplicates(self):
        _, cy, _ = generate(small_config())
        ts = make_trials(cy, 30, 30, seed=2)
        pairs = [(t.enroll_speaker_id, t.test_utterance_id) for t in ts.trials]
        assert len(set(pairs)) == len(pairs)
