import numpy as np
import pytest

from sidalign.align import (
    NegativeBank,
    NessaConfig,
    PairBatch,
    PairedData,
    loss_m1,
    loss_m2,
    loss_m3,
    load_checkpoint,
    sample_negative_bank,
    save_checkpoint,
    train,
    transform_profiles_offline,
)
from sidalign.data import Corpus
from sidalign.errors import ConfigInvalid, DisjointnessViolation, InsufficientData
from sidalign.mlp import forward, gradient_check, mlp_init
from sidalign.numerics import Prng, cosine_similarity
from sidalign.synth import SynthConfig, generate


def unit_rows(prng, n, d):
    rows = prng.standard_normal(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_batch(prng, n, d):
    return PairBatch(
        [f"s{i}" for i in range(n)],
        unit_rows(prng, n, d),
        unit_rows(prng, n, d),
        unit_rows(prng, n, d),
        unit_rows(prng, n, d),
    )


def random_bank(prng, m, d, offset=100):
    return NegativeBank(
        [f"s{offset + i}" for i in range(m)],
        unit_rows(prng, m, d),
        unit_rows(prng, m, d),
    )


def paired_from_synth(seed=0, n_speakers=40, **overrides):
    base = dict(
        n_speakers=n_speakers,
        n_enroll_utts=3,
        n_runtime_utts=2,
        latent_dim=6,
        embed_dim=6,
        within_noise_x=0.2,
        within_noise_y=0.1,
        distortion_x="orthogonal",
        distortion_y="orthogonal",
        seed=seed,
    )
    base.update(overrides)
    cx, cy, _ = generate(SynthConfig(**base))
    return PairedData(cx, cy)


class TestMseLosses:
    def test_perfect_fit_zero_loss(self):
        prng = Prng(0)
        batch = random_batch(prng, 5, 3)
        batch.e_y = batch.e_x.copy()
        f = mlp_init([3, 4, 4, 3], seed=0)
        # make the net an identity on this batch: impossible in general, so
        # instead check the loss equals the direct MSE of the net's output
        y, _ = forward(f, batch.e_x)
        expect = float(np.mean((y - batch.e_y) ** 2))
        loss, _ = loss_m2(f, batch)
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_m1_uses_runtime_pair(self):
        prng = Prng(1)
        batch = random_batch(prng, 5, 3)
        f = mlp_init([3, 4, 4, 3], seed=1)
        y, _ = forward(f, batch.r_y)
        expect = float(np.mean((y - batch.r_x) ** 2))
        loss, _ = loss_m1(f, batch)
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_m2_gradcheck(self):
        prng = Prng(2)
        batch = random_batch(prng, 6, 4)
        f = mlp_init([4, 5, 5, 4], seed=2)
        loss, grads = loss_m2(f, batch)
        err = gradient_check(f.parameters(), lambda: loss_m2(f, batch)[0], grads,
                             seed=0)
        assert err <= 1e-6


class TestContrastiveLoss:
    def test_uniform_cosines_give_log_candidates(self):
        # if all candidate scores are equal, every softmax probability is
        # 1/(n+M) and the contrastive term is alpha * log(n+M)
        n, m, d = 4, 3, 5
        prng = Prng(3)
        batch = random_batch(prng, n, d)
        bank = random_bank(prng, m, d)
        f1 = mlp_init([d, 6, 6, d], seed=3)
        f2 = mlp_init([d, 6, 6, d], seed=4)
        # constant output nets: zero weights, fixed bias on the last layer
        for f in (f1, f2):
            for w in f.weights:
                w[:] = 0
            f.biases[-1][:] = 1.0
        loss, _, _, _ = loss_m3(f1, f2, 5.0, batch, bank, 1.0, 0.0, 0.0,
                                want_grads=False)
        assert loss == pytest.approx(np.log(n + m), rel=1e-9)

    def test_alpha_zero_reduces_to_weighted_mse(self):
        prng = Prng(4)
        batch = random_batch(prng, 5, 4)
        f1 = mlp_init([4, 6, 6, 4], seed=5)
        f2 = mlp_init([4, 6, 6, 4], seed=6)
        beta, gamma = 0.7, 0.3
        loss, _, _, _ = loss_m3(f1, f2, 5.0, batch, None, 0.0, beta, gamma,
                                want_grads=False)
        y1, _ = forward(f1, batch.e_x)
        y2, _ = forward(f2, batch.r_y)
        expect = beta * float(np.mean((y1 - batch.e_y) ** 2)) + gamma * float(
            np.mean((y2 - batch.r_y) ** 2))
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_brute_force_small_case(self):
        # recompute the full objective straight-line with plain loops
        n, m, d = 3, 2, 3
        prng = Prng(5)
        batch = random_batch(prng, n, d)
        bank = random_bank(prng, m, d)
        f1 = mlp_init([d, 4, 4, d], seed=7)
        f2 = mlp_init([d, 4, 4, d], seed=8)
        alpha, beta, gamma, w = 1.0, 0.5, 0.1, 5.0
        loss, _, _, _ = loss_m3(f1, f2, w, batch, bank, alpha, beta, gamma,
                                want_grads=False)

        a_in = np.vstack([batch.e_x, bank.e_x])
        mapped_a = np.stack([forward(f1, a_in[j])[0] for j in range(n + m)])
        mapped_b = np.stack([forward(f2, batch.r_y[i])[0] for i in range(n)])
        term1 = 0.0
        for i in range(n):
            scores = [w * cosine_similarity(mapped_a[j], mapped_b[i])
                      for j in range(n + m)]
            denom = sum(np.exp(s) for s in scores)
            term1 -= np.log(np.exp(scores[i]) / denom)
        term1 *= alpha / n
        mse2 = np.mean((mapped_a[:n] - batch.e_y) ** 2)
        mse3 = np.mean((mapped_b - batch.r_y) ** 2)
        expect = term1 + beta * mse2 + gamma * mse3
        assert loss == pytest.approx(expect, rel=1e-9)

    def test_additive_in_beta_gamma(self):
        prng = Prng(6)
        batch = random_batch(prng, 4, 3)
        bank = random_bank(prng, 2, 3)
        f1 = mlp_init([3, 8, 8, 3], seed=9)
        f2 = mlp_init([3, 8, 8, 3], seed=10)
        full, _, _, _ = loss_m3(f1, f2, 5.0, batch, bank, 1.0, 0.5, 0.1,
                                want_grads=False)
        c, _, _, _ = loss_m3(f1, f2, 5.0, batch, bank, 1.0, 0.0, 0.0,
                             want_grads=False)
        b, _, _, _ = loss_m3(f1, f2, 5.0, batch, bank, 0.0, 0.5, 0.0,
                             want_grads=False)
        g, _, _, _ = loss_m3(f1, f2, 5.0, batch, bank, 0.0, 0.0, 0.1,
                             want_grads=False)
        assert abs(full - (c + b + g)) <= 1e-12

    def test_gradcheck_including_w(self):
        # seed picked so no mapped row is close to the zero vector, where the
        # cosine is not differentiable and finite differences are meaningless
        prng = Prng(16)
        batch = random_batch(prng, 4, 3)
        bank = random_bank(prng, 2, 3)
        f1 = mlp_init([3, 8, 8, 3], seed=116)
        f2 = mlp_init([3, 8, 8, 3], seed=216)
        w = np.array([5.0])

        def loss_fn():
            l, _, _, _ = loss_m3(f1, f2, float(w[0]), batch, bank,
                                 1.0, 0.5, 0.1, want_grads=False)
            return l

        _, g1, g2, dw = loss_m3(f1, f2, float(w[0]), batch, bank, 1.0, 0.5, 0.1)
        params = f1.parameters() + f2.parameters() + [w]
        grads = g1 + g2 + [np.array([dw])]
        err = gradient_check(params, loss_fn, grads, seed=0)
        assert err <= 1e-6

    def test_bank_overlap_rejected(self):
        prng = Prng(8)
        batch = random_batch(prng, 3, 3)
        bank = random_bank(prng, 2, 3, offset=0)  # shares s0, s1 with batch
        f1 = mlp_init([3, 4, 4, 3], seed=13)
        f2 = mlp_init([3, 4, 4, 3], seed=14)
        with pytest.raises(DisjointnessViolation):
            loss_m3(f1, f2, 5.0, batch, bank, 1.0, 0.5, 0.1)


class TestPairedData:
    def test_shapes_and_alignment(self):
        paired = paired_from_synth()
        assert paired.n_speakers == 40
        assert paired.e_x.shape == (40, 6)
        assert paired.r_x.shape == paired.r_y.shape == (80, 6)

    def test_sample_batch_distinct_speakers(self):
        paired = paired_from_synth()
        batch = paired.sample_batch(20, Prng(0))
        assert len(set(batch.speaker_ids)) == 20

    def test_speaker_without_runtime_utterances_dropped(self):
        cx, cy, _ = generate(SynthConfig(
            n_speakers=20, n_enroll_utts=3, n_runtime_utts=2, latent_dim=6,
            embed_dim=6, within_noise_x=0.2, within_noise_y=0.1,
            distortion_x="orthogonal", distortion_y="orthogonal", seed=2))

        def without_runtime(corpus, speakers):
            return Corpus([r for r in corpus.records
                           if r.split != "runtime" or r.speaker_id not in speakers],
                          corpus.profiles)

        gone = {cx.speaker_ids()[3]}
        paired = PairedData(without_runtime(cx, gone), without_runtime(cy, gone))
        kept = [s for s in cx.speaker_ids() if s not in gone]
        assert paired.speaker_ids == kept
        # same data, hence the same random stream, as leaving the speaker out
        ref = PairedData(cx, cy, kept)
        a, b = paired.sample_batch(8, Prng(0)), ref.sample_batch(8, Prng(0))
        assert a.speaker_ids == b.speaker_ids
        np.testing.assert_array_equal(a.r_y, b.r_y)
        assert paired.full_batch().size == 19

        # a speaker without a Y profile, and one whose runtime utterances
        # have no Y pair, are left out the same way
        no_profile, no_pair = cx.speaker_ids()[5], cx.speaker_ids()[7]
        cy_cut = Corpus([r for r in cy.records
                         if not (r.split == "runtime" and r.speaker_id == no_pair)],
                        [p for p in cy.profiles if p.speaker_id != no_profile])
        assert no_profile not in PairedData(cx, cy_cut).speaker_ids
        assert no_pair not in PairedData(cx, cy_cut).speaker_ids

        everyone = set(cx.speaker_ids())
        with pytest.raises(InsufficientData):
            PairedData(without_runtime(cx, everyone), without_runtime(cy, everyone))

    def test_bank_disjoint_from_batch(self):
        paired = paired_from_synth()
        prng = Prng(1)
        batch = paired.sample_batch(10, prng)
        bank = sample_negative_bank(paired, batch.speaker_ids, 15, prng)
        assert not set(bank.speaker_ids) & set(batch.speaker_ids)
        assert bank.size == 15


class TestTraining:
    def test_deterministic_checkpoints(self):
        paired = paired_from_synth()
        cfg = NessaConfig(variant="m2", epochs=2, steps_per_epoch=5,
                          batch_size=16, hidden=8, seed=3)
        a = train(cfg, paired, paired)
        b = train(cfg, paired, paired)
        for pa, pb in zip(a.f1.parameters(), b.f1.parameters()):
            np.testing.assert_array_equal(pa, pb)
        assert a.log == b.log or all(
            ea["train_loss"] == eb["train_loss"] for ea, eb in zip(a.log, b.log))

    def test_m1_identity_views_loss_collapses(self):
        # when the two views coincide, F(r_Y) -> r_X is learnable to near zero
        paired = paired_from_synth(
            within_noise_x=0.0, within_noise_y=0.0,
            distortion_x="identity", distortion_y="identity")
        cfg = NessaConfig(variant="m1", epochs=6, steps_per_epoch=40,
                          batch_size=32, hidden=32, lr0=3e-3, seed=0)
        ckpt = train(cfg, paired, paired)
        vals = [e["val_loss"] for e in ckpt.log]
        assert vals[-1] < vals[0]
        assert vals[-1] <= 1e-3

    def test_m3_trains_and_logs_w(self):
        paired = paired_from_synth()
        cfg = NessaConfig(variant="m3", epochs=2, steps_per_epoch=5,
                          batch_size=8, bank_size=8, hidden=8, seed=4)
        ckpt = train(cfg, paired, paired)
        assert ckpt.f2 is not None
        assert ckpt.w is not None
        assert all("w" in e for e in ckpt.log)

    def test_invalid_variant(self):
        with pytest.raises(ConfigInvalid):
            NessaConfig(variant="m9").validate()


class TestCheckpointIO:
    def test_m2_round_trip(self, tmp_path):
        paired = paired_from_synth()
        cfg = NessaConfig(variant="m2", epochs=1, steps_per_epoch=3,
                          batch_size=8, hidden=8, seed=5)
        ckpt = train(cfg, paired, paired)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.variant == "m2"
        for a, b in zip(back.f1.parameters(), ckpt.f1.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_m3_round_trip(self, tmp_path):
        paired = paired_from_synth()
        cfg = NessaConfig(variant="m3", epochs=1, steps_per_epoch=3,
                          batch_size=8, bank_size=8, hidden=8, seed=6)
        ckpt = train(cfg, paired, paired)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.variant == "m3"
        assert back.w == pytest.approx(ckpt.w)
        for a, b in zip(back.f2.parameters(), ckpt.f2.parameters()):
            np.testing.assert_array_equal(a, b)


class TestOfflineProfileMapping:
    def test_output_space_label_and_norm(self, tmp_path):
        cx, cy, _ = generate(SynthConfig(
            n_speakers=30, n_enroll_utts=3, n_runtime_utts=2,
            latent_dim=6, embed_dim=6, within_noise_x=0.2, within_noise_y=0.1,
            distortion_x="orthogonal", distortion_y="orthogonal", seed=9))
        paired = PairedData(cx, cy)
        cfg = NessaConfig(variant="m2", epochs=1, steps_per_epoch=3,
                          batch_size=8, hidden=8, seed=7)
        ckpt = train(cfg, paired, paired)
        mapped = transform_profiles_offline(ckpt, cx.profiles)
        assert len(mapped) == 30
        for p in mapped:
            assert p.model_id == "X→Y"
            assert abs(np.linalg.norm(p.vector) - 1) < 1e-9
