import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidalign.align import (
    Checkpoint,
    NegativeBank,
    NessaConfig,
    PairBatch,
    PairedData,
    checkpoint_from_dict,
    checkpoint_to_dict,
    loss_m1,
    loss_m2,
    loss_m3,
    load_checkpoint,
    map_profiles,
    map_runtime,
    sample_negative_bank,
    save_checkpoint,
    side_maps,
    split_train_val,
    train,
)
from sidalign.data import FIELDS, Corpus, EmbeddingRecord
from sidalign.errors import (
    ConfigInvalid,
    DisjointnessViolation,
    InsufficientData,
    ParseError,
    SidAlignError,
    TrainingDiverged,
    VariantMismatch,
)
from sidalign.logit import build_weight_matrix
from sidalign.mlp import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    mlp_init,
)
from sidalign.numerics import Prng, cosine_similarity
from sidalign.synth import SynthConfig, generate

from gradcheck import gradient_check


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
    bank = NegativeBank([f"s{offset + i}" for i in range(m)], unit_rows(prng, m, d))
    unit_rows(prng, m, d)  # the former e_y draw: later draws stay as they were
    return bank


def corpus_of(records):
    """The corpus of EmbeddingRecord rows."""
    records = list(records)
    return Corpus(*([getattr(r, f) for r in records] for f in FIELDS))


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
        mapped_a = np.vstack([forward(f1, a_in[j:j + 1])[0] for j in range(n + m)])
        mapped_b = np.vstack([forward(f2, batch.r_y[i:i + 1])[0] for i in range(n)])
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
        assert len(set(batch.speakers.tolist())) == 20

    def test_speaker_without_runtime_utterances_dropped(self):
        cx, cy, _ = generate(SynthConfig(
            n_speakers=20, n_enroll_utts=3, n_runtime_utts=2, latent_dim=6,
            embed_dim=6, within_noise_x=0.2, within_noise_y=0.1,
            distortion_x="orthogonal", distortion_y="orthogonal", seed=2))

        def without_runtime(corpus, speakers):
            return corpus_of([r for r in corpus.records
                              if r.split != "runtime" or r.speaker_id not in speakers])

        gone = {cx.speaker_ids()[3]}
        paired = PairedData(without_runtime(cx, gone), without_runtime(cy, gone))
        kept = [s for s in cx.speaker_ids() if s not in gone]
        assert paired.speaker_ids == kept
        # same data, hence the same random stream, as leaving the speaker out
        ref = PairedData(cx, cy, kept)
        a, b = paired.sample_batch(8, Prng(0)), ref.sample_batch(8, Prng(0))
        assert ([paired.speaker_ids[i] for i in a.speakers]
                == [ref.speaker_ids[i] for i in b.speakers])
        np.testing.assert_array_equal(a.r_y, b.r_y)
        assert paired.full_batch().size == 19

        # a speaker without a Y profile (no Y enrollment records), and one
        # whose runtime utterances have no Y pair, are left out the same way
        no_profile, no_pair = cx.speaker_ids()[5], cx.speaker_ids()[7]
        cy_cut = corpus_of([r for r in cy.records
                            if not (r.split == "runtime" and r.speaker_id == no_pair)
                            and not (r.split == "enroll" and r.speaker_id == no_profile)])
        assert no_profile not in cy_cut.profiles.speakers
        assert no_profile not in PairedData(cx, cy_cut).speaker_ids
        assert no_pair not in PairedData(cx, cy_cut).speaker_ids

        everyone = set(cx.speaker_ids())
        with pytest.raises(InsufficientData):
            PairedData(without_runtime(cx, everyone), without_runtime(cy, everyone))

    def test_split_train_val(self):
        cx, cy, _ = generate(SynthConfig(n_speakers=40, latent_dim=6, embed_dim=6, seed=4))
        gone = cx.speaker_ids()[0]  # Y lacks it: the other 39 are split, in X order
        cy_cut = corpus_of([r for r in cy.records if r.speaker_id != gone])
        shared = cx.speaker_ids()[1:]
        val = {shared[i] for i in Prng(3 + 7).permutation(39)[:4]}  # round(3.9)
        train_pair, val_pair = split_train_val(cx, cy_cut, 0.1, seed=3)
        assert val_pair.speaker_ids == [s for s in shared if s in val]
        assert train_pair.speaker_ids == [s for s in shared if s not in val]
        assert split_train_val(cx, cy, 0.0, seed=3)[1] is None
        for val_fraction in (-0.1, 1.0, 0.99):  # 0.99 rounds to all 40 speakers
            with pytest.raises(ConfigInvalid, match="val-fraction"):
                split_train_val(cx, cy, val_fraction, seed=3)

    def test_bank_disjoint_from_batch(self):
        paired = paired_from_synth()
        prng = Prng(1)
        batch = paired.sample_batch(10, prng)
        bank = sample_negative_bank(paired, batch.speakers, 15, prng)
        assert not set(bank.speakers.tolist()) & set(batch.speakers.tolist())
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

    def test_m3_validation_speakers_that_also_train(self):
        # API callers may pass splits that share speakers: the validation bank
        # is drawn by Prng(seed + 101) from the training speakers outside the
        # validation set, and the logged loss is loss_m3 on the float32 copies.
        cx, cy, _ = generate(SynthConfig(n_speakers=40, n_enroll_utts=3, n_runtime_utts=2,
                                         latent_dim=6, embed_dim=6, seed=8))
        ids = cx.speaker_ids()
        train_pair, val_pair = PairedData(cx, cy, ids[:30]), PairedData(cx, cy, ids[20:])
        cfg = NessaConfig(variant="m3", epochs=1, steps_per_epoch=5, batch_size=8,
                          bank_size=8, hidden=8, lr0=1e-4, seed=4)
        ckpt = train(cfg, train_pair, val_pair)
        again = train(cfg, train_pair, val_pair)
        assert json.dumps(checkpoint_to_dict(ckpt)) == json.dumps(checkpoint_to_dict(again))
        assert ckpt.trained_epochs == 1  # the logged loss is the checkpoint's

        outside = [i for i, s in enumerate(ids[:30]) if s not in ids[20:]]
        picks = np.array(outside)[Prng(cfg.seed + 101).choice(len(outside), 8,
                                                               replace=False)]
        train32, val32 = train_pair.astype(np.float32), val_pair.astype(np.float32)
        bank = NegativeBank(val32.n_speakers + np.arange(8), train32.e_x[picks])
        want = loss_m3(ckpt.f1.astype(np.float32), ckpt.f2.astype(np.float32), ckpt.w,
                       val32.full_batch(), bank, cfg.alpha, cfg.beta, cfg.gamma,
                       want_grads=False)[0]
        assert ckpt.log[0]["val_loss"] == want

    def test_invalid_variant(self):
        with pytest.raises(ConfigInvalid):
            NessaConfig(variant="m9").validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(gamma=-0.5), "alpha, beta, gamma must be >= 0"),
        (dict(epochs=-1), "epochs must be >= 0"),
        (dict(bank_size=-1), "bank_size must be >= 0"),
    ], ids=["negative-weight", "negative-epochs", "negative-bank"])
    def test_config_refused(self, overrides, message):
        with pytest.raises(ConfigInvalid, match=message):
            NessaConfig(variant="m3", **overrides).validate()

    @pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
    def test_trains_in_float32_returns_float64(self, variant):
        # Every returned parameter and w is a float32 value held as float64,
        # and the caller's paired data keeps its float64 rows.
        paired = paired_from_synth()
        rows = [paired.e_x.copy(), paired.r_y.copy()]
        cfg = NessaConfig(variant=variant, epochs=2, steps_per_epoch=4,
                          batch_size=8, bank_size=8, hidden=8, seed=2)
        ckpt = train(cfg, paired, paired)
        nets = [ckpt.f1] + ([ckpt.f2] if variant == "m3" else [])
        values = [p for f in nets for p in f.parameters()]
        if variant == "m3":
            values.append(np.array([ckpt.w]))
        for a in values:
            assert a.dtype == np.float64
            assert (a.astype(np.float32).astype(np.float64) == a).all()
        assert paired.e_x.dtype == np.float64
        assert paired.e_x.tobytes() == rows[0].tobytes()
        assert paired.r_y.tobytes() == rows[1].tobytes()

    @pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
    @pytest.mark.parametrize("with_val", [True, False])
    def test_non_finite_loss_raises_diverged(self, variant, with_val):
        # lr 1e6 overflows float32 within a few steps
        paired = paired_from_synth()
        cfg = NessaConfig(variant=variant, epochs=3, steps_per_epoch=4, batch_size=8,
                          bank_size=8, hidden=8, lr0=1e6, seed=2)
        with pytest.raises(TrainingDiverged, match="diverged"):
            train(cfg, paired, paired if with_val else None)

    def test_non_finite_parameter_raises_diverged(self):
        # lr 1e39 is inf in float32: the first step's loss is finite, the
        # parameters it leaves are not, and the snapshot refuses them
        paired = paired_from_synth()
        cfg = NessaConfig(variant="m2", epochs=1, steps_per_epoch=1, batch_size=8,
                          hidden=8, lr0=1e39, seed=2)
        with pytest.raises(TrainingDiverged, match="a parameter is not finite after 1 "):
            train(cfg, paired, None)

    def test_w_init_beyond_float32_refused(self):
        NessaConfig(variant="m3", w_init=-3e38).validate()
        with pytest.raises(ConfigInvalid, match="w_init"):
            NessaConfig(variant="m3", w_init=-1e300).validate()

    def test_vector_beyond_float32_is_a_parse_error(self):
        # a finite float64 row that float32 cannot hold: the error Corpus
        # gives for a non-finite vector, not a zero-vector one
        paired = paired_from_synth()
        paired.r_y[0] = 1e39
        cfg = NessaConfig(variant="m1", epochs=1, steps_per_epoch=2, batch_size=8,
                          hidden=8, seed=2)
        with pytest.raises(ParseError, match="Y runtime vectors hold a value beyond"):
            train(cfg, paired, None)


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

    @pytest.mark.parametrize("variant", ["m1", "m2", "m3"])
    def test_trained_checkpoint_scores_alike_after_reload(self, tmp_path, variant):
        # The file holds each float32 value as the shortest float64 text,
        # which parses back to the same bits: the reloaded checkpoint maps
        # both sides bit for bit as the one in memory.
        paired = paired_from_synth()
        cfg = NessaConfig(variant=variant, epochs=2, steps_per_epoch=3,
                          batch_size=8, bank_size=8, hidden=8, seed=7)
        ckpt = train(cfg, paired, paired)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.w == ckpt.w
        rows = paired.e_x[:5]
        for got, want in zip(side_maps(back), side_maps(ckpt)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got(rows).tobytes() == want(rows).tobytes()

    @pytest.mark.parametrize("variant, unmapped", [("m1", map_profiles),
                                                   ("m2", map_runtime)])
    def test_side_the_variant_leaves_raises_variant_mismatch(self, variant, unmapped):
        ckpt = Checkpoint(variant, Mlp([np.eye(2)], [np.zeros(2)]), None, None,
                          0.0, 1.0, 1.0, 0, 1)
        with pytest.raises(VariantMismatch, match=f"variant '{variant}' does not map"):
            unmapped(ckpt, np.ones((3, 2)))

    @pytest.mark.parametrize("hidden", [64, 256])
    def test_maps_in_row_blocks_give_the_bits_of_one_forward(self, hidden):
        # The maps run forward on ceil(n / BLOCK_ROWS) equal row blocks; this
        # relies on BLAS giving a row the same bits in blocks of these sizes.
        f1, f2 = (mlp_init([32, hidden, hidden, 32], seed=s) for s in (1, 2))
        ckpt = Checkpoint("m3", f1, f2, 1.0, 1.0, 0.5, 0.1, 0, 1)
        for n in (1, 511, 512, 513, 1025, 2000, 4100):
            x = Prng(n).standard_normal(n, 32)
            for mapped, net in ((map_profiles, f1), (map_runtime, f2)):
                got = mapped(ckpt, x)
                assert got.shape == (n, 32), n
                assert got.tobytes() == forward(net, x)[0].tobytes(), (n, mapped.__name__)

    def test_unknown_variant_refused(self, tmp_path):
        ckpt = Checkpoint("m2", Mlp([np.eye(2)], [np.zeros(2)]), None, None,
                          0.0, 1.0, 1.0, 0, 1)
        obj = dict(checkpoint_to_dict(ckpt), variant="m4")
        with pytest.raises(ParseError, match="malformed checkpoint: unknown variant 'm4'"):
            checkpoint_from_dict(obj)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="ckpt.json: malformed checkpoint: unknown"):
            load_checkpoint(path)

    @given(st.data())
    def test_parameters_round_trip_bit_for_bit(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)

        def net():
            dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
            return Mlp([data.draw(arrays(np.float64, (o, i), elements=finite))
                        for i, o in zip(dims[:-1], dims[1:])],
                       [data.draw(arrays(np.float64, (o,), elements=finite))
                        for o in dims[1:]])

        variant = data.draw(st.sampled_from(["m1", "m2", "m3"]))
        m3 = variant == "m3"
        ckpt = Checkpoint(variant, net(), net() if m3 else None,
                          data.draw(finite) if m3 else None,
                          *data.draw(st.tuples(finite, finite, finite)),
                          data.draw(st.integers(0, 2**31)), data.draw(st.integers(0, 99)))
        with tempfile.TemporaryDirectory() as tmp:
            path, want = Path(tmp) / "ckpt.json", Path(tmp) / "want.json"
            save_checkpoint(ckpt, path, extra={"seed": 1})
            with open(want, "w", encoding="utf-8", newline="\n") as fh:
                json.dump({"seed": 1, **checkpoint_to_dict(ckpt)}, fh)
                fh.write("\n")
            assert path.read_bytes() == want.read_bytes()
            back = load_checkpoint(path)
        # repr tells the bits of a finite float apart, -0.0 from 0.0 too
        for name in ("variant", "w", "alpha", "beta", "gamma", "seed", "trained_epochs"):
            assert repr(getattr(back, name)) == repr(getattr(ckpt, name)), name
        for side in ("f1", "f2") if m3 else ("f1",):
            a, b = getattr(back, side), getattr(ckpt, side)
            assert a.layer_dims == b.layer_dims
            for p, q in zip(a.parameters(), b.parameters(), strict=True):
                assert p.shape == q.shape and p.tobytes() == q.tobytes()


# ---------------------------------------------------------------------------
# References: the per-speaker loops and the full alpha = 0 objective that
# sample_batch, sample_negative_bank and loss_m3 replaced, kept to check the
# replacements bit for bit.


def reference_runtime_pairs(paired, corpus_x, corpus_y):
    """Each speaker's paired (x, y) runtime vectors, in record order."""
    pos = {s: i for i, s in enumerate(paired.speaker_ids)}
    runtime_y = {r.utterance_id: r.vector for r in corpus_y.records if r.split == "runtime"}
    pairs = [[] for _ in pos]
    for rec in corpus_x.records:
        if rec.split != "runtime" or rec.speaker_id not in pos:
            continue
        if rec.utterance_id in runtime_y:
            pairs[pos[rec.speaker_id]].append((rec.vector, runtime_y[rec.utterance_id]))
    return pairs


def reference_sample_batch(pairs, size, prng):
    """One scalar integers() call per speaker; returns (speaker rows, the
    chosen (x, y) runtime pairs)."""
    size = min(size, len(pairs))
    spk_idx = prng.choice(len(pairs), size, replace=False)
    chosen = []
    for si in spk_idx:
        utts = pairs[int(si)]
        chosen.append(utts[int(prng.integers(0, len(utts)))])
    return spk_idx, chosen


def reference_bank(speaker_ids, batch_speaker_ids, m, prng):
    """The candidates by list comprehension over id strings; returns rows."""
    if m == 0:
        return np.zeros(0, dtype=int)
    excluded = set(batch_speaker_ids)
    candidates = [i for i, s in enumerate(speaker_ids) if s not in excluded]
    if m > len(candidates):
        raise InsufficientData(
            f"bank of {m} requested, only {len(candidates)} disjoint speakers")
    picks = prng.choice(len(candidates), m, replace=False)
    return np.array([candidates[int(i)] for i in picks])


def reference_loss_m3(f1, f2, w, batch, bank, alpha, beta, gamma, want_grads=True):
    """The objective with the bank mapped and the contrastive block computed
    at every alpha."""
    n = batch.size
    m_neg = bank.size if bank is not None else 0
    if n + m_neg < 2:
        raise InsufficientData("contrastive loss needs at least 2 candidates")
    if bank is not None and set(bank.speakers) & set(batch.speakers):
        raise DisjointnessViolation("bank speakers overlap the batch")
    if bank is not None and bank.size > 0:
        a_in = np.vstack([batch.e_x, bank.e_x])
    else:
        a_in = batch.e_x
    a_out, cache1 = forward(f1, a_in)
    b_out, cache2 = forward(f2, batch.r_y)
    a_norm = np.maximum(np.linalg.norm(a_out, axis=1, keepdims=True), 1e-12)
    b_norm = np.maximum(np.linalg.norm(b_out, axis=1, keepdims=True), 1e-12)
    a_hat, b_hat = a_out / a_norm, b_out / b_norm
    cosines = a_hat @ b_hat.T
    scores = w * cosines
    shifted = scores - scores.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=0, keepdims=True)
    p = exp / denom
    log_p_pos = shifted[np.arange(n), np.arange(n)] - np.log(denom[0])
    term1 = -(alpha / n) * float(np.sum(log_p_pos))
    diff2, diff3 = a_out[:n] - batch.e_y, b_out - batch.r_y
    mse2, mse3 = float(np.mean(diff2 * diff2)), float(np.mean(diff3 * diff3))
    loss = term1 + beta * mse2 + gamma * mse3
    if not want_grads:
        return loss, None, None, None
    dscores = (alpha / n) * p
    dscores[np.arange(n), np.arange(n)] -= alpha / n
    dl_dw = float(np.sum(dscores * cosines))
    dcos = w * dscores
    da_hat = dcos @ b_hat
    db_hat = dcos.T @ a_hat
    da = (da_hat - a_hat * np.sum(a_hat * da_hat, axis=1, keepdims=True)) / a_norm
    db = (db_hat - b_hat * np.sum(b_hat * db_hat, axis=1, keepdims=True)) / b_norm
    da[:n] += beta * (2.0 * diff2 / diff2.size)
    db += gamma * (2.0 * diff3 / diff3.size)
    return loss, backward(f1, cache1, da), backward(f2, cache2, db), dl_dw


def uneven_corpora(counts, seed, d=3):
    """Two views in which speaker i has counts[i] paired runtime utterances
    (0 leaves it out of PairedData), with the records in shuffled order."""
    prng = Prng(seed)
    views = {"X": [], "Y": []}
    for i, count in enumerate(counts):
        for model, recs in views.items():
            recs.append(EmbeddingRecord(f"s{i}", f"e{i}", model, "enroll",
                                        prng.standard_normal(d)))
            recs.extend(EmbeddingRecord(f"s{i}", f"u{i}.{u}", model, "runtime",
                                        prng.standard_normal(d))
                        for u in range(count))
    order = prng.permutation(len(views["X"]))
    return tuple(corpus_of([recs[int(j)] for j in order]) for recs in views.values())


def reference_paired(corpus_x, corpus_y, speaker_subset):
    """PairedData's (speaker_ids, utt_start, utt_count, e_x, e_y, r_x, r_y) by
    the dicts of profiles and of Y runtime rows, and the sorted list of
    (speaker, X row, Y row) tuples, that joined the views before rows_of."""
    prof_x = dict(zip(corpus_x.profiles.speakers, corpus_x.profiles.vectors))
    prof_y = dict(zip(corpus_y.profiles.speakers, corpus_y.profiles.vectors))
    speakers = [s for s in corpus_x.speaker_ids() if s in prof_x and s in prof_y]
    if speaker_subset is not None:
        allowed = set(speaker_subset)
        speakers = [s for s in speakers if s in allowed]
    speaker_pos = {s: i for i, s in enumerate(speakers)}
    y_row = {corpus_y.utterances[j]: j for j in corpus_y.rows("runtime")}
    joined = [(speaker_pos[corpus_x.speakers[i]], i, y_row[corpus_x.utterances[i]])
              for i in corpus_x.rows("runtime")
              if corpus_x.speakers[i] in speaker_pos and corpus_x.utterances[i] in y_row]
    if not joined:
        raise InsufficientData("no paired runtime utterance")
    owner, rows_x, rows_y = np.array(sorted(joined, key=lambda t: t[0])).T
    keep, utt_count = np.unique(owner, return_counts=True)
    speaker_ids = [speakers[i] for i in keep]
    return (speaker_ids, np.cumsum(utt_count) - utt_count, utt_count,
            np.stack([prof_x[s] for s in speaker_ids]),
            np.stack([prof_y[s] for s in speaker_ids]),
            corpus_x.vectors[rows_x], corpus_y.vectors[rows_y])


@st.composite
def loosely_paired_views(draw):
    """Two views and a speaker subset (None, or ids that may be unknown). A
    speaker may lack enrollment records in either view, and a runtime
    utterance its record in either; each view's records are shuffled."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    views = {"X": [], "Y": []}
    for i in range(n):
        for model, recs in views.items():
            recs.extend(EmbeddingRecord(f"s{i}", f"e{i}.{k}", model, "enroll",
                                        rng.standard_normal(3))
                        for k in range(rng.integers(0, 3)))
        for u in range(rng.integers(0, 4)):
            for model, recs in views.items():
                if rng.random() < 0.8:
                    recs.append(EmbeddingRecord(f"s{i}", f"u{i}.{u}", model, "runtime",
                                                rng.standard_normal(3)))
    cx, cy = (corpus_of([recs[j] for j in rng.permutation(len(recs))])
              for recs in views.values())
    subset = draw(st.none() | st.lists(st.sampled_from([f"s{i}" for i in range(n + 2)])))
    return cx, cy, subset


def generator_state(prng):
    return prng._gen.bit_generator.state


uneven_counts = st.lists(st.integers(0, 6), min_size=1, max_size=40).filter(any)


class TestAgainstReferences:
    @given(loosely_paired_views())
    def test_paired_data_and_weights_equal_dict_gathers(self, drawn):
        cx, cy, subset = drawn
        try:
            want = reference_paired(cx, cy, subset)
        except SidAlignError as exc:  # no profiles in a view, or no pair
            with pytest.raises(type(exc)):
                PairedData(cx, cy, subset)
            return
        paired = PairedData(cx, cy, subset)
        assert paired.speaker_ids == want[0]
        for name, value in zip(("utt_start", "utt_count", "e_x", "e_y", "r_x", "r_y"),
                               want[1:]):
            got = getattr(paired, name)
            assert (got.dtype, got.shape) == (value.dtype, value.shape)
            assert got.tobytes() == value.tobytes()
        for corpus in (cx, cy):
            rows = dict(zip(corpus.profiles.speakers, corpus.profiles.vectors))
            order = paired.speaker_ids[::-1]
            assert (build_weight_matrix(corpus.profiles, order).w.tobytes()
                    == np.stack([rows[s] for s in order]).tobytes())
    @given(uneven_counts, st.integers(1, 45), st.integers(0, 50),
           st.integers(0, 2**32 - 1))
    def test_batch_and_bank_equal_loops(self, counts, size, m, seed):
        cx, cy = uneven_corpora(counts, seed)
        paired = PairedData(cx, cy)
        pairs = reference_runtime_pairs(paired, cx, cy)

        prng, ref = Prng(seed + 1), Prng(seed + 1)
        batch = paired.sample_batch(size, prng)
        spk_idx, chosen = reference_sample_batch(pairs, size, ref)
        assert batch.speakers.tobytes() == spk_idx.tobytes()
        for got, want in ((batch.e_x, paired.e_x[spk_idx]),
                          (batch.e_y, paired.e_y[spk_idx]),
                          (batch.r_x, np.stack([x for x, _ in chosen])),
                          (batch.r_y, np.stack([y for _, y in chosen]))):
            assert got.tobytes() == want.tobytes()
        assert generator_state(prng) == generator_state(ref)

        batch_ids = [paired.speaker_ids[i] for i in spk_idx]
        try:
            want_rows = reference_bank(paired.speaker_ids, batch_ids, m, ref)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                sample_negative_bank(paired, batch.speakers, m, prng)
            return
        bank = sample_negative_bank(paired, batch.speakers, m, prng)
        assert bank.speakers.tolist() == want_rows.tolist()
        assert bank.e_x.tobytes() == paired.e_x[want_rows].tobytes()
        assert generator_state(prng) == generator_state(ref)
        assert prng.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()

    @given(st.integers(1, 12), st.integers(0, 12), st.integers(1, 5),
           st.integers(1, 6), st.sampled_from([0.0, 0.3, 1.0]),
           st.sampled_from([0.0, 0.5, 1.3]), st.sampled_from([0.0, 0.1, 2.0]),
           st.integers(0, 2**32 - 1))
    def test_loss_m3_equals_reference(self, n, m, d, h, alpha, beta, gamma, seed):
        if n + m < 2:
            return
        prng = Prng(seed)
        batch = random_batch(prng, n, d)
        bank = random_bank(prng, m, d)
        f1 = mlp_init([d, h, h, d], seed=seed % 1000)
        f2 = mlp_init([d, h, h, d], seed=seed % 1000 + 1)
        w = float(prng.uniform(-3, 10, 1)[0])
        got = loss_m3(f1, f2, w, batch, bank, alpha, beta, gamma)
        val = loss_m3(f1, f2, w, batch, bank, alpha, beta, gamma, want_grads=False)
        assert got[0] == val[0]
        if alpha:
            # The contrastive path is the reference's code: every bit agrees.
            want = reference_loss_m3(f1, f2, w, batch, bank, alpha, beta, gamma)
            assert got[0] == want[0] and got[3] == want[3]
            for g, r in zip(got[1] + got[2], want[1] + want[2]):
                assert g.tobytes() == r.tobytes()
            return
        # alpha = 0 maps only the batch rows. Against the reference on the
        # same rows (no bank), the skipped block changes nothing: the same
        # loss bits and gradient values (an exact zero may differ in sign,
        # which an Adam step cannot turn into a different parameter).
        if n >= 2:
            want = reference_loss_m3(f1, f2, w, batch, None, 0.0, beta, gamma)
            assert got[0] == want[0]
            for g, r in zip(got[1] + got[2], want[1] + want[2]):
                np.testing.assert_array_equal(g, r)
        assert got[3] == 0.0
        # Against the reference with the bank mapped, rows mapped alone and
        # inside a larger block agree to rounding; see
        # test_alpha_zero_bank_rows_bit_equal for the shapes where the bits do.
        with_bank = reference_loss_m3(f1, f2, w, batch, bank, 0.0, beta, gamma)
        assert got[0] == pytest.approx(with_bank[0], rel=1e-12, abs=1e-300)
        for g, r in zip(got[1] + got[2], with_bank[1] + with_bank[2]):
            np.testing.assert_allclose(g, r, rtol=1e-11, atol=1e-15)

    @pytest.mark.parametrize("n, m, want_grads", [
        (256, 512, True),    # a training step of criteria 5-6 and perfbench
        (100, 512, False),   # perfbench's validation loss
        (1000, 512, False),  # criteria 5-6's validation loss
    ])
    def test_alpha_zero_bank_rows_bit_equal(self, n, m, want_grads):
        # At these shapes (d = 32, hidden 256) the batch rows get the same
        # bits mapped alone as inside the batch+bank block, so alpha = 0
        # runs give the checkpoints of mapping the bank. With OpenBLAS
        # 0.3.31 that does not hold for every shape: a block of 1 row, or of
        # fewer than ~38 rows at these widths, takes another kernel, and
        # the gradient's sum over 256 < n + M < 512 rows is split in two at
        # a different row. There the results agree to rounding (checked in
        # test_loss_m3_equals_reference). It holds for training's float32
        # networks and rows as for float64 ones.
        prng = Prng(n + m)
        d, h = 32, 256
        batch64 = random_batch(prng, n, d)
        bank64 = random_bank(prng, m, d, offset=n)
        for dtype in (np.float64, np.float32):
            batch = PairBatch(batch64.speakers, *(getattr(batch64, k).astype(dtype)
                                                  for k in ("e_x", "e_y", "r_x", "r_y")))
            bank = NegativeBank(bank64.speakers, bank64.e_x.astype(dtype))
            f1 = mlp_init([d, h, h, d], seed=1).astype(dtype)
            f2 = mlp_init([d, h, h, d], seed=2).astype(dtype)
            got = loss_m3(f1, f2, 5.0, batch, bank, 0.0, 0.5, 0.1, want_grads)
            want = reference_loss_m3(f1, f2, 5.0, batch, bank, 0.0, 0.5, 0.1,
                                     want_grads)
            assert got[0] == want[0]
            if want_grads:
                assert got[3] == want[3] == 0.0
                for g, r in zip(got[1] + got[2], want[1] + want[2]):
                    assert g.dtype == dtype
                    np.testing.assert_array_equal(g, r)

    def test_alpha_zero_training_steps_bit_equal(self):
        # Ten Adam steps of the ablation at batch 256 + bank 512: the same
        # parameter and w bits as with the bank mapped, in training's float32
        # and in float64.
        paired64 = paired_from_synth(seed=3, n_speakers=800, latent_dim=32,
                                     embed_dim=32)
        d, h = 32, 256

        def run(loss_fn, dtype):
            paired = paired64.astype(dtype)
            f1 = mlp_init([d, h, h, d], seed=5).astype(dtype)
            f2 = mlp_init([d, h, h, d], seed=6).astype(dtype)
            w = np.array([5.0], dtype=dtype)
            params = f1.parameters() + f2.parameters() + [w]
            state, prng = AdamState(params), Prng(7)
            for _ in range(10):
                batch = paired.sample_batch(256, prng)
                bank = sample_negative_bank(paired, batch.speakers, 512, prng)
                _, g1, g2, dw = loss_fn(f1, f2, float(w[0]), batch, bank,
                                        0.0, 0.5, 0.1)
                adam_step(params, g1 + g2 + [np.array([dw], dtype=dtype)], state, 1e-3)
            return params

        for dtype in (np.float64, np.float32):
            for got, want in zip(run(loss_m3, dtype), run(reference_loss_m3, dtype)):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes()
