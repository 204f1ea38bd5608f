import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidalign.data import profile_corpus
from sidalign.errors import (
    DimensionMismatch,
    InsufficientData,
    MissingSpeaker,
    ParseError,
    SpeakerOrderMismatch,
)
from sidalign.logit import (
    FusionTransform,
    build_weight_matrix,
    compute_fusion_transform,
    load_fusion,
    logit_score_direct,
    logit_score_fused_batch,
    save_fusion,
)
from sidalign.numerics import Prng, cosine_similarity, length_normalize


def unit_rows(prng, n, d):
    rows = prng.standard_normal(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_weights(prng, n, d, model="X"):
    rows = unit_rows(prng, n, d)
    profiles = profile_corpus([f"s{i}" for i in range(n)], model, rows)
    return build_weight_matrix(profiles, [f"s{i}" for i in range(n)])


ONE_PROFILE = profile_corpus(["a"], "X", [[1.0, 0.0]])


class TestBuildWeightMatrix:
    def test_rows_are_profiles(self):
        w = build_weight_matrix(profile_corpus(["a", "b"], "X", np.eye(2)), ["b", "a"])
        np.testing.assert_array_equal(w.w, [[0, 1], [1, 0]])
        assert w.speaker_order == ["b", "a"]

    def test_missing_speaker(self):
        with pytest.raises(MissingSpeaker):
            build_weight_matrix(ONE_PROFILE, ["a", "zzz"])

    def test_first_missing_speaker_in_order_named(self):
        with pytest.raises(MissingSpeaker, match="'zzz'"):
            build_weight_matrix(ONE_PROFILE, ["a", "zzz", "yyy"])

    def test_duplicate_order(self):
        with pytest.raises(SpeakerOrderMismatch):
            build_weight_matrix(ONE_PROFILE, ["a", "a"])

    @pytest.mark.parametrize("profiles", [profile_corpus([], None, []), ONE_PROFILE],
                             ids=["no-profiles", "one-profile"])
    def test_empty_speaker_order(self, profiles):
        with pytest.raises(InsufficientData):
            build_weight_matrix(profiles, [])


class TestDirectScoring:
    def test_identity_weights_self(self):
        prng = Prng(0)
        w = random_weights(prng, 4, 4)
        w.w = np.eye(4)
        e = length_normalize([1, 2, 3, 4])
        assert logit_score_direct(e, e, w, w) == pytest.approx(1.0)

    def test_identity_weights_orthogonal(self):
        prng = Prng(0)
        w = random_weights(prng, 2, 2)
        w.w = np.eye(2)
        assert logit_score_direct([1, 0], [0, 1], w, w) == pytest.approx(0.0)

    def test_matches_manual_composition(self):
        prng = Prng(1)
        wx = random_weights(prng, 50, 8, "X")
        wy = random_weights(prng, 50, 8, "Y")
        wy.speaker_order = wx.speaker_order
        e = prng.standard_normal(8)
        r = prng.standard_normal(8)
        manual = cosine_similarity(wx.w @ e, wy.w @ r)
        assert logit_score_direct(e, r, wx, wy) == pytest.approx(manual, abs=1e-12)

    def test_order_mismatch(self):
        prng = Prng(2)
        wx = random_weights(prng, 3, 4, "X")
        wy = random_weights(prng, 3, 4, "Y")
        wy.speaker_order = ["z1", "z2", "z3"]
        with pytest.raises(SpeakerOrderMismatch):
            logit_score_direct(np.ones(4), np.ones(4), wx, wy)


class TestFusion:
    def test_fused_equals_direct(self):
        prng = Prng(5)
        d = 8
        wx = random_weights(prng, 2 * d + 4, d, "X")
        wy = random_weights(prng, 2 * d + 4, d, "Y")
        wy.speaker_order = wx.speaker_order
        f = compute_fusion_transform(wx, wy)
        pairs = [(prng.standard_normal(d), prng.standard_normal(d))
                 for _ in range(100)]
        e, r = (np.stack(side) for side in zip(*pairs))
        fused = logit_score_fused_batch(e, r, f)
        for (a, b), got in zip(pairs, fused):
            assert abs(logit_score_direct(a, b, wx, wy) - got) <= 1e-6

    def test_identical_logit_vectors_score_one(self):
        prng = Prng(6)
        d = 4
        wx = random_weights(prng, 3 * d, d, "X")
        f = compute_fusion_transform(wx, wx)
        e = length_normalize(prng.standard_normal(d))[None, :]
        assert logit_score_fused_batch(e, e, f)[0] == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        prng = Prng(7)
        d = 6
        wx = random_weights(prng, 3 * d, d, "X")
        wy = random_weights(prng, 3 * d, d, "Y")
        wy.speaker_order = wx.speaker_order
        f = compute_fusion_transform(wx, wy)
        e = prng.standard_normal(d)
        r = prng.standard_normal(d)
        base = logit_score_fused_batch(e[None, :], r[None, :], f)[0]
        scaled = logit_score_fused_batch(3.7 * e[None, :], 0.2 * r[None, :], f)[0]
        assert scaled == pytest.approx(base, abs=1e-9)
        assert logit_score_direct(3.7 * e, 0.2 * r, wx, wy) == pytest.approx(
            logit_score_direct(e, r, wx, wy), abs=1e-9)

    def test_batch_matches_scalar(self):
        prng = Prng(8)
        d = 5
        wx = random_weights(prng, 3 * d, d, "X")
        wy = random_weights(prng, 3 * d, d, "Y")
        wy.speaker_order = wx.speaker_order
        f = compute_fusion_transform(wx, wy)
        e = unit_rows(prng, 10, d)
        r = unit_rows(prng, 10, d)
        # a row scores the same alone as inside a batch
        batch = logit_score_fused_batch(e, r, f)
        for i in range(10):
            single = logit_score_fused_batch(e[i:i + 1], r[i:i + 1], f)[0]
            assert batch[i] == pytest.approx(single, abs=1e-12)

    def test_dim_mismatch(self):
        f = FusionTransform(np.eye(4), 2, 10)
        with pytest.raises(DimensionMismatch):
            logit_score_fused_batch(np.ones((1, 3)), np.ones((1, 2)), f)

    def test_json_round_trip(self, tmp_path):
        prng = Prng(9)
        d = 4
        wx = random_weights(prng, 3 * d, d, "X")
        wy = random_weights(prng, 3 * d, d, "Y")
        wy.speaker_order = wx.speaker_order
        f = compute_fusion_transform(wx, wy)
        path = tmp_path / "fusion.json"
        save_fusion(f, path)
        back = load_fusion(path)
        np.testing.assert_array_equal(back.m, f.m)
        assert back.d == f.d and back.n_speakers == f.n_speakers

    @pytest.mark.parametrize("d, n", [("2.5", "10"), ("2", "-7"), ("2", "0"),
                                      ("2", "10.5"), ("true", "10"), ("2", "NaN")])
    def test_d_and_n_not_whole_numbers_of_one_or_more_refused(self, tmp_path, d, n):
        path = tmp_path / "fusion.json"
        path.write_text(f'{{"d": {d}, "N": {n}, "m": {np.eye(4).ravel().tolist()}}}')
        with pytest.raises(ParseError, match="fusion.json: malformed fusion transform"):
            load_fusion(path)

    def test_d_and_n_written_as_floats_load(self, tmp_path):
        path = tmp_path / "fusion.json"
        path.write_text(f'{{"d": 2.0, "N": 1e1, "m": {np.eye(4).ravel().tolist()}}}')
        back = load_fusion(path)
        assert (back.d, back.n_speakers) == (2, 10) and back.m.tolist() == np.eye(4).tolist()


@given(st.integers(1, 32), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_fused_equals_direct_for_any_speaker_count(d, per_dim, seed, data):
    # N < 2d included: the stacked weights then have rank N < 2d
    n = data.draw(st.integers(1, per_dim * d))
    prng = Prng(seed)
    wx = random_weights(prng, n, d, "X")
    wy = random_weights(prng, n, d, "Y")
    e, r = prng.standard_normal(5, d), prng.standard_normal(5, d)
    fused = logit_score_fused_batch(e, r, compute_fusion_transform(wx, wy))
    direct = [logit_score_direct(a, b, wx, wy) for a, b in zip(e, r)]
    np.testing.assert_allclose(fused, direct, rtol=0, atol=1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fusion_transforms(draw):
    d = draw(st.integers(1, 4))
    return FusionTransform(draw(arrays(np.float64, (2 * d, 2 * d), elements=finite)), d,
                           draw(st.integers(1, 10**6)))


@given(fusion_transforms(), st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
       st.none() | st.floats(0, 1))
def test_fusion_file_round_trip_bit_for_bit(f, extra, old_jitter):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fusion.json"
        save_fusion(f, path, extra=extra)
        if old_jitter is not None:
            # the older format: a "jitter_applied" key between "N" and "m"
            text = path.read_text().replace(
                ', "m": [', f', "jitter_applied": {old_jitter!r}, "m": [', 1)
            path.write_text(text)
        back = load_fusion(path)
    assert back.m.shape == f.m.shape and back.m.tobytes() == f.m.tobytes()
    assert (back.d, back.n_speakers) == (f.d, f.n_speakers)
