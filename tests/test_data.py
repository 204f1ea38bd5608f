import numpy as np
import pytest

from sidalign.data import (
    Corpus,
    EmbeddingRecord,
    Trial,
    TrialSet,
    build_all_profiles,
    build_voice_profile,
    load_embeddings,
    load_profiles,
    load_trials,
    save_embeddings,
    save_profiles,
    save_scores,
    save_trials,
)
from sidalign.errors import (
    DimensionMismatch,
    EmptyEnrollment,
    ModelMismatch,
    ParseError,
    UnknownLabel,
    ZeroVector,
)
from sidalign.numerics import length_normalize


def rec(speaker, utt, vector, split="enroll", model="X"):
    return EmbeddingRecord(speaker, utt, model, split, vector)


class TestBuildVoiceProfile:
    def test_single_record(self):
        p = build_voice_profile([rec("a", "u1", [3, 4])])
        np.testing.assert_allclose(p.vector, [0.6, 0.8])

    def test_two_orthogonal_records(self):
        p = build_voice_profile([rec("a", "u1", [1, 0]), rec("a", "u2", [0, 1])])
        np.testing.assert_allclose(p.vector, [0.70710678, 0.70710678], atol=1e-8)

    def test_exact_cancellation(self):
        with pytest.raises(ZeroVector):
            build_voice_profile([rec("a", "u1", [1, 0]), rec("a", "u2", [-1, 0])])

    def test_empty(self):
        with pytest.raises(EmptyEnrollment):
            build_voice_profile([])

    def test_mixed_speakers(self):
        with pytest.raises(ModelMismatch):
            build_voice_profile([rec("a", "u1", [1, 0]), rec("b", "u2", [0, 1])])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        records = [rec("a", f"u{i}", rng.standard_normal(12)) for i in range(8)]
        p = build_voice_profile(records)
        assert abs(np.linalg.norm(p.vector) - 1) < 1e-9

    def test_identical_records_any_k(self):
        for k in (1, 2, 5):
            records = [rec("a", f"u{i}", [2, 0, 1]) for i in range(k)]
            p = build_voice_profile(records)
            np.testing.assert_allclose(p.vector, np.array([2, 0, 1]) / np.sqrt(5))


class TestEmbeddingIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = load_embeddings(path)
        assert corpus.records == []

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [
            rec("a", "u1", rng.standard_normal(4).astype(np.float32), "enroll"),
            rec("a", "u2", rng.standard_normal(4).astype(np.float32), "runtime"),
            rec("b", "u3", rng.standard_normal(4).astype(np.float32), "enroll"),
        ]
        path = tmp_path / "c.jsonl"
        save_embeddings(Corpus(records), path)
        loaded = load_embeddings(path)
        assert [r.utterance_id for r in loaded.records] == ["u1", "u2", "u3"]
        assert [r.split for r in loaded.records] == ["enroll", "runtime", "enroll"]
        for orig, back in zip(records, loaded.records):
            f32 = orig.vector.astype(np.float32)
            ulp = np.spacing(np.abs(f32))
            assert np.all(np.abs(back.vector.astype(np.float32) - f32) <= ulp)

    def test_second_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [rec("s", f"u{i}", rng.standard_normal(6)) for i in range(5)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_embeddings(Corpus(records), p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dimension_mismatch_names_utterance(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_embeddings(Corpus([rec("a", "u1", [1, 0, 0])]), path)
        with open(path, "a") as fh:
            fh.write('{"speaker_id": "b", "utterance_id": "u2", "model_id": "X", '
                     '"split": "enroll", "vector": [1, 0]}\n')
        with pytest.raises(DimensionMismatch, match="u2"):
            load_embeddings(path)

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"speaker_id": "a"\n')
        with pytest.raises(ParseError, match=":1"):
            load_embeddings(path)

    def test_profile_round_trip(self, tmp_path):
        p = build_voice_profile([rec("a", "u1", [3, 4])])
        path = tmp_path / "prof.jsonl"
        save_profiles([p], path)
        back = load_profiles(path)
        assert back[0].speaker_id == "a"
        np.testing.assert_allclose(back[0].vector, [0.6, 0.8], atol=1e-8)


class TestTrialIO:
    def test_parse_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("spk1\tutt9\ttarget\n")
        ts = load_trials(path)
        assert ts.trials == [Trial("spk1", "utt9", "target")]

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("spk1\tutt9\tgenuine\n")
        with pytest.raises(UnknownLabel):
            load_trials(path)

    def test_score_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        trials = [Trial(f"s{i}", f"u{i}", "target" if i % 2 else "imposter")
                  for i in range(100)]
        ts = TrialSet(trials, list(rng.uniform(-1, 1, 100)))
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_scores(ts, p1)
        save_scores(load_trials(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trial_round_trip_order(self, tmp_path):
        trials = [Trial("b", "u2", "imposter"), Trial("a", "u1", "target")]
        path = tmp_path / "t.tsv"
        save_trials(TrialSet(trials), path)
        assert load_trials(path).trials == trials


class TestCorpus:
    def test_duplicate_record_rejected(self):
        with pytest.raises(ParseError):
            Corpus([rec("a", "u1", [1, 0]), rec("b", "u1", [0, 1])])

    def test_lookup(self):
        c = Corpus([rec("a", "u1", [1, 0], "runtime")])
        assert c.record("u1", "runtime").speaker_id == "a"
        assert (c.model_id, c.dim) == ("X", 2)

    def test_empty(self):
        c = Corpus([])
        assert (c.model_id, c.dim) == (None, None)
        with pytest.raises(EmptyEnrollment):
            c.profiles

    def test_second_model_rejected_naming_utterance(self):
        with pytest.raises(ModelMismatch, match="u2"):
            Corpus([rec("a", "u1", [1, 0]), rec("a", "u2", [0, 1], model="Y")])

    def test_load_names_file_of_mixed_models(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        save_embeddings(Corpus([rec("a", "u1", [1, 0])]), path)
        with open(path, "a") as fh:
            fh.write('{"speaker_id": "a", "utterance_id": "u2", "model_id": "Y", '
                     '"split": "enroll", "vector": [0, 1]}\n')
        with pytest.raises(ModelMismatch, match="mixed.jsonl.*u2"):
            load_embeddings(path)


def reference_profiles(corpus, model_id):
    """Profiles one speaker at a time: normalize the speaker's stacked
    enrollment records, average them, normalize the mean on its own."""
    by_speaker = {}
    for r in corpus.records:
        if r.model_id == model_id and r.split == "enroll":
            by_speaker.setdefault(r.speaker_id, []).append(r.vector)
    return [(speaker, length_normalize(length_normalize(np.stack(vectors)).mean(axis=0)))
            for speaker, vectors in by_speaker.items()]


class TestBuildAllProfiles:
    def records(self, order):
        """Speakers with 1 to 6 enrollment and 2 runtime records each, in
        grouped (one speaker after another) or interleaved order."""
        rng = np.random.default_rng(4)
        per_speaker = [
            [rec(f"s{k}", f"s{k}_e{u}",
                 rng.standard_normal(7) * 10.0 ** rng.integers(-3, 4))
             for u in range(1 + k % 6)]
            + [rec(f"s{k}", f"s{k}_r{u}", rng.standard_normal(7), "runtime")
               for u in range(2)]
            for k in range(40)]
        if order == "grouped":
            return [r for recs in per_speaker for r in recs]
        return [recs[u] for u in range(8) for recs in per_speaker if u < len(recs)]

    @pytest.mark.parametrize("order", ["grouped", "interleaved"])
    def test_bitwise_equal_to_per_speaker_loop(self, order):
        corpus = Corpus(self.records(order))
        got = build_all_profiles(corpus, "X")
        want = reference_profiles(corpus, "X")
        assert [p.speaker_id for p in got] == [s for s, _ in want]
        for p, (_, v) in zip(got, want):
            assert p.model_id == "X"
            np.testing.assert_array_equal(p.vector, v)
        for p in got:
            one = build_voice_profile(r for r in corpus.records
                                      if r.speaker_id == p.speaker_id
                                      and r.split == "enroll")
            np.testing.assert_array_equal(one.vector, p.vector)

    def test_zero_norm_runtime_vector_ignored(self):
        records = self.records("interleaved")
        records.append(rec("s0", "s0_zero", np.zeros(7), "runtime"))
        got = Corpus(records).profiles
        want = build_all_profiles(Corpus(self.records("interleaved")), "X")
        assert len(got) == len(want) == 40
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_zero_norm_enrollment_vector_rejected(self):
        with pytest.raises(ZeroVector):
            build_all_profiles(Corpus([rec("a", "u1", [1, 0]), rec("a", "u2", [0, 0])]),
                               "X")

    def test_other_model_rejected(self):
        with pytest.raises(ModelMismatch):
            build_all_profiles(Corpus([rec("a", "u1", [1, 0])]), "Y")

    def test_no_enrollment_records(self):
        with pytest.raises(EmptyEnrollment):
            build_all_profiles(Corpus([rec("a", "u1", [1, 0], "runtime")]), "X")
