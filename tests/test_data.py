import ast
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidalign import data
from sidalign.cli import main
from sidalign.data import (
    FIELDS,
    FLOAT_FMT,
    SPLITS,
    Corpus,
    EmbeddingRecord,
    Trial,
    TrialSet,
    build_all_profiles,
    load_embeddings,
    load_profiles,
    load_trials,
    profile_corpus,
    save_embeddings,
    save_scores,
    save_trials,
)
from sidalign.errors import (
    DimensionMismatch,
    EmptyEnrollment,
    ModelMismatch,
    ParseError,
    SidAlignError,
    UnknownLabel,
    ZeroVector,
)
from sidalign.numerics import Prng, length_normalize


def rec(speaker, utt, vector, split="enroll", model="X"):
    return EmbeddingRecord(speaker, utt, model, split, vector)


def corpus_of(records):
    """The corpus of EmbeddingRecord rows."""
    records = list(records)
    return Corpus(*([getattr(r, f) for r in records] for f in FIELDS))


def profile_of(records):
    """The profile vector of one speaker's records, the first row of the
    profile set build_all_profiles builds."""
    return build_all_profiles(corpus_of(records), "X").vectors[0]


class TestBuildVoiceProfile:
    def test_single_record(self):
        p = profile_of([rec("a", "u1", [3, 4])])
        np.testing.assert_allclose(p, [0.6, 0.8])

    def test_two_orthogonal_records(self):
        p = profile_of([rec("a", "u1", [1, 0]), rec("a", "u2", [0, 1])])
        np.testing.assert_allclose(p, [0.70710678, 0.70710678], atol=1e-8)

    def test_exact_cancellation(self):
        with pytest.raises(ZeroVector):
            profile_of([rec("a", "u1", [1, 0]), rec("a", "u2", [-1, 0])])

    def test_empty(self):
        with pytest.raises(EmptyEnrollment):
            build_all_profiles(corpus_of([]), None)

    def test_mixed_speakers(self):
        profiles = build_all_profiles(
            corpus_of([rec("b", "u1", [1, 0]), rec("a", "u2", [0, 1]), rec("b", "u3", [1, 0])]),
            "X")
        assert profiles.speakers == ["b", "a"]
        assert profiles.utterances == ["profile:b", "profile:a"]
        np.testing.assert_array_equal(profiles.vectors[0], [1, 0])
        np.testing.assert_array_equal(profiles.vectors[1], [0, 1])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        records = [rec("a", f"u{i}", rng.standard_normal(12)) for i in range(8)]
        p = profile_of(records)
        assert abs(np.linalg.norm(p) - 1) < 1e-9

    def test_identical_records_any_k(self):
        for k in (1, 2, 5):
            records = [rec("a", f"u{i}", [2, 0, 1]) for i in range(k)]
            p = profile_of(records)
            np.testing.assert_allclose(p, np.array([2, 0, 1]) / np.sqrt(5))


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
        save_embeddings(corpus_of(records), path)
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
        save_embeddings(corpus_of(records), p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dimension_mismatch_names_utterance(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_embeddings(corpus_of([rec("a", "u1", [1, 0, 0])]), path)
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
        profiles = build_all_profiles(corpus_of([rec("a", "u1", [3, 4])]), "X")
        path = tmp_path / "prof.jsonl"
        save_embeddings(profiles, path)
        back = load_profiles(path)
        assert (back.speakers, back.model_id) == (["a"], "X")
        np.testing.assert_allclose(back.vectors[0], [0.6, 0.8], atol=1e-8)


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
        corpus = corpus_of(self.records(order))
        got = build_all_profiles(corpus, "X")
        want = reference_profiles(corpus, "X")
        assert got.speakers == [s for s, _ in want]
        assert got.model_id == "X"
        for p, (_, v) in zip(got.vectors, want, strict=True):
            np.testing.assert_array_equal(p, v)
        for speaker, p in zip(got.speakers, got.vectors):
            one = profile_of(r for r in corpus.records
                             if r.speaker_id == speaker and r.split == "enroll")
            np.testing.assert_array_equal(one, p)

    @given(st.integers(1, 69), st.lists(st.integers(1, 13), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    def test_grouped_means_bitwise_equal_to_per_speaker_loop(self, d, counts, seed):
        """Speakers of equal and unequal enrollment counts, rows shuffled."""
        rng = np.random.default_rng(seed)
        speakers = [f"s{k}" for k, n in enumerate(counts) for _ in range(n)]
        order = rng.permutation(len(speakers)).tolist()
        vectors = rng.standard_normal((len(speakers), d)) * 10.0 ** rng.integers(-3, 4, (
            len(speakers), 1))
        corpus = Corpus([speakers[i] for i in order],
                        [f"u{i}" for i in order], ["X"] * len(order),
                        ["enroll"] * len(order), vectors)
        try:
            want = reference_profiles(corpus, "X")
        except ZeroVector:  # a mean of zero, as of +1 and -1 at d = 1
            with pytest.raises(ZeroVector):
                build_all_profiles(corpus, "X")
            return
        got = build_all_profiles(corpus, "X")
        assert got.speakers == [s for s, _ in want]
        for p, (_, v) in zip(got.vectors, want, strict=True):
            assert p.tobytes() == v.tobytes()

    def test_zero_norm_runtime_vector_ignored(self):
        records = self.records("interleaved")
        records.append(rec("s0", "s0_zero", np.zeros(7), "runtime"))
        got = corpus_of(records).profiles
        want = build_all_profiles(corpus_of(self.records("interleaved")), "X")
        assert len(got) == len(want) == 40
        np.testing.assert_array_equal(got.vectors, want.vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_uneven_counts_across_blocks_bitwise_equal_to_per_speaker_loop(self, seed):
        # Blocks of about BLOCK_ROWS enrollment rows end at speaker ends: one
        # speaker has more rows than a block, the others 1 to 40, interleaved.
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 41, 150)
        counts[rng.integers(150)] = data.BLOCK_ROWS + 1 + seed
        speakers = np.repeat([f"s{k}" for k in range(150)], counts)[
            rng.permutation(counts.sum())].tolist()
        n = len(speakers)
        vectors = rng.standard_normal((n, 9)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        corpus = Corpus(speakers, [f"u{i}" for i in range(n)], ["X"] * n,
                        [SPLITS[i % 7 == 0] for i in range(n)], vectors)
        got = build_all_profiles(corpus, "X")
        want = reference_profiles(corpus, "X")
        assert got.speakers == [s for s, _ in want]
        for p, (_, v) in zip(got.vectors, want, strict=True):
            assert p.tobytes() == v.tobytes()

    def test_zero_norm_enrollment_vector_rejected(self):
        with pytest.raises(ZeroVector):
            build_all_profiles(corpus_of([rec("a", "u1", [1, 0]), rec("a", "u2", [0, 0])]),
                               "X")

    @pytest.mark.parametrize("bad, message", [
        ([0.0, 0.0], "utterance 'b2': cannot normalize a row of norm 0"),
        ([1e300, 1e300], "utterance 'b2': cannot normalize a row of norm inf"),
        ([-1.0, 0.0], "the mean enrollment vector of speaker 'b': cannot normalize "
                      "a row of norm 0")])
    def test_refused_vector_names_its_utterance_or_speaker(self, bad, message):
        # b's rows come after a's, interleaved with a runtime row; [-1, 0]
        # cancels b's first row [1, 0], so b's mean is zero
        records = [rec("a", "a1", [0, 1]), rec("b", "b1", [1, 0]),
                   rec("a", "r1", [0, 0], "runtime"), rec("b", "b2", bad),
                   rec("b", "b3", [1, 0]), rec("b", "b4", [-1, 0])]
        with pytest.raises(ZeroVector, match=f"^{re.escape(message)}$"):
            build_all_profiles(corpus_of(records), "X")

    def test_load_profiles_names_file_and_speaker_of_a_zero_vector(self, tmp_path):
        path = tmp_path / "prof.jsonl"
        save_embeddings(profile_corpus(["a", "b"], "X", [[1.0, 0.0], [0.0, 0.0]]), path)
        with pytest.raises(ZeroVector, match=f"^{re.escape(str(path))}: speaker 'b': "
                                             f"cannot normalize a row of norm 0$"):
            load_profiles(path)

    def test_zero_row_is_refused_before_a_zero_mean_of_an_earlier_block(self):
        # Speaker a's mean, of norm 5e-14, is in the first block and the zero row
        # of speaker c in the second: the row is refused, as when every row is
        # normalized before any mean.
        b = data.BLOCK_ROWS
        records = ([rec("a", "a1", [1, 0]), rec("a", "a2", [-1, 1e-13])]
                   + [rec("b", f"b{i}", [0, 1]) for i in range(b)] + [rec("c", "c1", [0, 0])])
        with pytest.raises(ZeroVector, match="a row of norm 0$"):
            build_all_profiles(corpus_of(records), "X")

    def test_other_model_rejected(self):
        with pytest.raises(ModelMismatch):
            build_all_profiles(corpus_of([rec("a", "u1", [1, 0])]), "Y")

    def test_no_enrollment_records(self):
        with pytest.raises(EmptyEnrollment):
            build_all_profiles(corpus_of([rec("a", "u1", [1, 0], "runtime")]), "X")


# ---------------------------------------------------------------------------
# Property tests of the JSONL loader


ids = st.text(min_size=1, max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)


def nine_digits(matrix):
    return np.array([[float(FLOAT_FMT % x) for x in row] for row in matrix],
                    dtype=np.float64).reshape(matrix.shape)


@st.composite
def column_corpora(draw):
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    utterances = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    speakers = draw(st.lists(ids, min_size=n, max_size=n))
    splits = draw(st.lists(st.sampled_from(SPLITS), min_size=n, max_size=n))
    vectors = draw(arrays(np.float64, (n, d), elements=finite))
    return Corpus(speakers, utterances, ["M"] * n, splits, vectors)


@st.composite
def profile_sets(draw):
    speakers = draw(st.lists(ids, max_size=6, unique=True))
    matrix = draw(arrays(np.float64, (len(speakers), 3), elements=st.floats(-1e3, 1e3)))
    assume(np.all(np.linalg.norm(matrix, axis=1) > 1e-3))
    return speakers, matrix


def bad_split(draw, obj):
    obj["split"] = draw(st.one_of(st.text(), st.integers(), st.none())
                        .filter(lambda s: s not in SPLITS))


def missing_key(draw, obj):
    del obj[draw(st.sampled_from(FIELDS))]


def non_list(draw, obj):
    obj["vector"] = draw(st.one_of(finite, st.text(), st.none(), st.booleans(),
                                   st.dictionaries(ids, finite, max_size=2)))


def ragged(draw, obj):
    obj["vector"] = [obj["vector"], obj["vector"] + [0.0]]


def non_numeric(draw, obj):
    i = draw(st.integers(0, len(obj["vector"]) - 1))
    obj["vector"][i] = draw(st.sampled_from(["a", "", "1,5", "0.6", True, False, None,
                                             {}, [1.0, 2.0]]))


def non_finite(draw, obj):
    i = draw(st.integers(0, len(obj["vector"]) - 1))
    obj["vector"][i] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))


@st.composite
def malformed_files(draw):
    """(JSONL text, the 1-based number of its one malformed line)."""
    n, d = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    lines = [json.dumps({"speaker_id": "a", "utterance_id": f"u{i}", "model_id": "M",
                         "split": draw(st.sampled_from(SPLITS)),
                         "vector": draw(st.lists(finite, min_size=d, max_size=d))})
             for i in range(n)]
    obj = {"speaker_id": "b", "utterance_id": "bad", "model_id": "M", "split": "enroll",
           "vector": draw(st.lists(finite, min_size=d, max_size=d))}
    draw(st.sampled_from([bad_split, missing_key, non_list, ragged, non_numeric,
                          non_finite]))(draw, obj)
    at = draw(st.integers(0, n))
    lines.insert(at, json.dumps(obj))
    return "".join(line + "\n" for line in lines), at + 1


class TestLoaderProperties:
    @given(column_corpora())
    def test_save_load_gives_nine_digit_values(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            path, want = Path(tmp) / "c.jsonl", Path(tmp) / "want.jsonl"
            save_embeddings(corpus, path)
            reference_save_embeddings(corpus, want)
            assert path.read_bytes() == want.read_bytes()
            back = load_embeddings(path)
        assert (back.speakers, back.utterances) == (corpus.speakers, corpus.utterances)
        np.testing.assert_array_equal(back.enroll, corpus.enroll)
        assert back.model_id == corpus.model_id
        if len(corpus):
            np.testing.assert_array_equal(back.vectors, nine_digits(corpus.vectors))

    @given(profile_sets())
    def test_profiles_round_trip(self, drawn):
        speakers, matrix = drawn
        units = length_normalize(matrix)
        profiles = profile_corpus(speakers, "M", units)
        with tempfile.TemporaryDirectory() as tmp:
            path, want = Path(tmp) / "p.jsonl", Path(tmp) / "want.jsonl"
            save_embeddings(profiles, path)
            reference_save_embeddings(corpus_of([
                EmbeddingRecord(s, f"profile:{s}", "M", "enroll", v)
                for s, v in zip(speakers, units)]), want)
            assert path.read_bytes() == want.read_bytes()
            back = load_profiles(path)
        assert back.speakers == speakers
        assert back.utterances == [f"profile:{s}" for s in speakers]
        if speakers:
            assert back.model_id == "M"
            np.testing.assert_array_equal(back.vectors, length_normalize(nine_digits(units)))

    @given(malformed_files())
    def test_malformed_line_is_a_parse_error_naming_it(self, drawn):
        text, lineno = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.jsonl"
            path.write_text(text)
            with pytest.raises(ParseError, match=re.escape(f"{path}:{lineno}:")):
                load_embeddings(path)

    @settings(max_examples=50)
    @given(malformed_files())
    def test_malformed_line_through_profile_one_error_line(self, drawn):
        text, lineno = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "bad.jsonl", Path(tmp) / "out.jsonl"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["profile", "--embeddings", str(path), "--out", str(out)])
            assert not out.exists()
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("error: ") and f"{path}:{lineno}:" in lines[0]


# ---------------------------------------------------------------------------
# The bulk reader against the per-line json reader it falls back to

JSON_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"


def load_line_by_line(path):
    """load_embeddings with the bulk reader switched off: one json.loads per line."""
    with mock.patch.object(data, "_bulk_columns", lambda text: None):
        return load_embeddings(path)


def load_in_bulk(path):
    """load_embeddings with a spy on the line reader that fails if a nonblank
    line reaches it (a block of blank lines alone may)."""
    line_columns = data._line_columns

    def spy(path, first, lines):
        assert not any(map(str.strip, lines)), "a nonblank line was read line by line"
        return line_columns(path, first, lines)

    with mock.patch.object(data, "_line_columns", spy):
        return load_embeddings(path)


def same_corpus(a, b):
    assert (a.speakers, a.utterances, a.model_id, a.dim) == (b.speakers, b.utterances,
                                                             b.model_id, b.dim)
    assert a.enroll.tobytes() == b.enroll.tobytes()
    assert a.vectors.dtype == b.vectors.dtype == np.float64
    assert a.vectors.shape == b.vectors.shape
    assert a.vectors.tobytes() == b.vectors.tobytes()


def layout_line(speaker, utt, model, split, numbers):
    return data.RECORD_LAYOUT % (speaker, utt, model, f'"{split}"',
                                 "[" + ",".join(numbers) + "]")


# Ids as json.dumps writes them: escapes for quotes, backslashes and control
# characters, and either escapes or raw text for non-ASCII characters.
plain_ids = st.text(st.characters(codec="ascii", exclude_categories=("Cc",),
                                  exclude_characters='"\\'), min_size=1, max_size=5)
id_texts = st.one_of(plain_ids.map(json.dumps),
                     ids.map(json.dumps),
                     ids.map(lambda s: json.dumps(s, ensure_ascii=False)))
# Finite doubles, subnormals among them, as 9 or 17 digits or repr.
number_texts = st.builds(lambda fmt, x: fmt(x),
                         st.sampled_from([FLOAT_FMT.__mod__, "%.17g".__mod__, repr]),
                         st.one_of(finite, st.floats(-1e-307, 1e-307)))
# Vector entries, JSON numbers or not: near misses of the grammar, brackets,
# letters, quotes, and integers too long for a double.
number_tokens = st.one_of(
    st.from_regex(JSON_NUMBER, fullmatch=True),
    st.text("0123456789+-.eE ", max_size=6),
    st.text("0123456789-.,[]\"aefilnrstuyIN ", max_size=6),
    st.integers(300, 500).map("9".__mul__),
    st.sampled_from(["+1", ".5", "1.", "01", "-.5", "1.e5", "-01", "1e", "-0", "inf",
                     "nan", " 1", "NaN", "-Infinity", "true", "null", '"1.5"', "[1]",
                     "1],[2", "1e999"]))


@st.composite
def valid_files(draw, id_texts=id_texts):
    """The text of a loadable file in the layout save_embeddings writes, with
    blank lines, whitespace around lines and CRLF endings drawn in."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    utterances = draw(st.lists(id_texts, min_size=n, max_size=n,
                               unique_by=lambda text: json.loads(text)))
    model = draw(id_texts)
    text = ""
    for utt in utterances:
        line = layout_line(draw(id_texts), utt, model, draw(st.sampled_from(SPLITS)),
                           draw(st.lists(number_texts, min_size=d, max_size=d)))
        pad = st.sampled_from(["", " ", "\t", " \t "])
        text += draw(st.sampled_from(["", "\n", " \n", "\r\n"]))
        text += draw(pad) + line + draw(pad) + draw(st.sampled_from(["\n", "\r\n"]))
    return text


def one_bad_part(draw, parts):
    """Spoil one part of a canonical line's (speaker, utterance, model, split,
    numbers)."""
    what = draw(st.sampled_from(["number", "ragged", "split", "model", "control"]))
    if what == "number":
        i = draw(st.integers(0, len(parts[4]) - 1))
        parts[4][i] = draw(st.sampled_from(["+1", ".5", "1.", "01", "-.5", "1.e5",
                                            "1e999", "-1e999"]))
    elif what == "ragged":
        parts[4] = parts[4][:-1] if len(parts[4]) > 1 else parts[4] + ["0.5"]
    elif what == "split":
        parts[3] = draw(st.sampled_from(["train", "Enroll", ""]))
    elif what == "model":
        parts[2] = '"other"'
    else:
        i = draw(st.integers(0, 2))
        parts[i] = parts[i][:-1] + draw(st.sampled_from("\x00\x01\t\x1f")) + '"'


@st.composite
def spoiled_files(draw):
    """(text, line number) of a canonical file with one bad part in one line,
    or with a line that repeats an earlier line's (utterance, split)."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rows = [['"a"', f'"u{i}"', '"M"', draw(st.sampled_from(SPLITS)),
             ["%.9g" % x for x in draw(st.lists(finite, min_size=d, max_size=d))]]
            for i in range(n)]
    at = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        one_bad_part(draw, rows[at])
    else:
        rows[at][1], rows[at][3] = rows[0][1], rows[0][3]
    return "".join(layout_line(*row) + "\n" for row in rows), at + 1


def reference_save_embeddings(corpus, path):
    """save_embeddings as one string: json.dumps per id, FLOAT_FMT per entry."""
    text = "".join(
        '{"speaker_id": %s, "utterance_id": %s, "model_id": %s, "split": "%s", '
        '"vector": [%s]}\n' % (json.dumps(speaker), json.dumps(utt),
                              json.dumps(corpus.model_id), SPLITS[not enroll],
                              ",".join(FLOAT_FMT % x for x in vector))
        for speaker, utt, enroll, vector in zip(corpus.speakers, corpus.utterances,
                                                corpus.enroll, corpus.vectors))
    Path(path).write_bytes(text.encode())


def load_or_error(load, path):
    """load(path), or the SidAlignError it raises."""
    try:
        return load(path)
    except SidAlignError as exc:
        return exc


def both_readers_agree(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(text.encode())
        same_corpus(load_embeddings(path), load_line_by_line(path))


class TestBulkReader:
    @given(valid_files())
    def test_valid_files_load_bit_for_bit(self, text):
        both_readers_agree(text)

    @given(valid_files(id_texts=plain_ids.map(json.dumps)))
    def test_files_without_escapes_are_read_in_bulk(self, text):
        assert data._bulk_columns(text.replace("\r\n", "\n")) is not None
        both_readers_agree(text)

    @pytest.mark.parametrize("n", [0, 1, data.BLOCK_ROWS - 1, data.BLOCK_ROWS,
                                   data.BLOCK_ROWS + 1, 8 * data.BLOCK_ROWS - 1,
                                   8 * data.BLOCK_ROWS, 8 * data.BLOCK_ROWS + 1,
                                   16 * data.BLOCK_ROWS + 3])
    def test_blocked_writer_writes_the_one_string_bytes(self, tmp_path, n):
        corpus = Corpus([f"s{i % 7}" for i in range(n)],
                        [f"u\u00e9\"{i}" for i in range(n)], ["M"] * n,
                        [SPLITS[i % 3 == 0] for i in range(n)],
                        Prng(n).standard_normal(n, 3))
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        save_embeddings(corpus, got)
        reference_save_embeddings(corpus, want)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) == n
        same_corpus(load_embeddings(got), load_line_by_line(got))

    def test_saved_corpus_is_read_in_bulk(self, tmp_path):
        corpus = Corpus(["s", "s"], ["u0", "u1"], ["M", "M"],
                        ["enroll", "runtime"], Prng(3).standard_normal(2, 5))
        save_embeddings(corpus, tmp_path / "c.jsonl")
        load_in_bulk(tmp_path / "c.jsonl")

    @given(spoiled_files())
    def test_spoiled_line_same_error_as_json(self, drawn):
        text, lineno = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.jsonl"
            path.write_bytes(text.encode())
            with pytest.raises(SidAlignError) as bulk:
                load_embeddings(path)
            with pytest.raises(SidAlignError) as by_line:
                load_line_by_line(path)
        assert type(bulk.value) is type(by_line.value)
        assert str(bulk.value) == str(by_line.value)
        assert str(bulk.value).startswith(f"{path}:{lineno}: ")

    @given(st.lists(st.lists(number_tokens, min_size=1, max_size=4), min_size=1,
                    max_size=4))
    def test_bulk_and_line_readers_agree_on_any_vector_text(self, rows):
        text = "".join(layout_line('"s"', f'"u{i}"', '"M"', "enroll", tokens) + "\n"
                       for i, tokens in enumerate(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            path.write_bytes(text.encode())
            bulk, by_line = (load_or_error(load, path)
                             for load in (load_embeddings, load_line_by_line))
        if isinstance(by_line, Corpus):
            same_corpus(bulk, by_line)
        else:
            assert (type(bulk), str(bulk)) == (type(by_line), str(by_line))

    @pytest.mark.parametrize("n", [data.BLOCK_ROWS - 1, data.BLOCK_ROWS,
                                   data.BLOCK_ROWS + 1, 2 * data.BLOCK_ROWS + 3])
    def test_bulk_reads_across_read_blocks(self, tmp_path, n):
        corpus = Corpus([f"s{i % 7}" for i in range(n)], [f"u{i}" for i in range(n)],
                        ["M"] * n, [SPLITS[i % 3 == 0] for i in range(n)],
                        Prng(n).standard_normal(n, 3))
        save_embeddings(corpus, tmp_path / "c.jsonl")
        load_in_bulk(tmp_path / "c.jsonl")
        same_corpus(load_embeddings(tmp_path / "c.jsonl"),
                    load_line_by_line(tmp_path / "c.jsonl"))

    def test_ragged_row_after_a_read_block_is_named(self, tmp_path):
        n = data.BLOCK_ROWS + 1
        lines = [layout_line('"s"', f'"u{i}"', '"M"', "enroll", ["0.5", "1"])
                 for i in range(n - 1)]
        lines.append(layout_line('"s"', f'"u{n}"', '"M"', "enroll", ["0.5"]))
        (tmp_path / "c.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(DimensionMismatch) as exc:
            load_embeddings(tmp_path / "c.jsonl")
        assert str(exc.value).startswith(f"{tmp_path / 'c.jsonl'}:{n}: ")

    @pytest.mark.parametrize("edge", ["crlf", "lone-cr", "not-utf8", "blank-block",
                                      "width-change", "empty"])
    def test_block_edges_read_as_line_by_line(self, tmp_path, edge):
        # Lines 1 to BLOCK_ROWS are the first block the streamed reader takes.
        n, b = data.BLOCK_ROWS + 5, data.BLOCK_ROWS
        lines = [layout_line('"s"', f'"u{i}"', '"M"', SPLITS[i % 2],
                             ["0.5", f"{i}e-3"] + ["1"] * (edge == "width-change" and i >= b))
                 for i in range(n)]
        if edge == "blank-block":  # the second block holds blank lines alone
            lines = lines[:3] + [""] * (b - 3) + [" \t"] * b + lines[3:]
        if edge == "not-utf8":
            lines[b + 1] = lines[b + 1].replace('"s"', '"s\udcff"')
        text = {"crlf": "\r\n", "lone-cr": "\r"}.get(edge, "\n").join(lines) + "\n"
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"" if edge == "empty" else
                         text.encode("utf-8", "surrogateescape"))
        bulk, by_line = (load_or_error(load, path)
                         for load in (load_embeddings, load_line_by_line))
        if edge in ("not-utf8", "width-change"):
            assert (type(bulk), str(bulk)) == (type(by_line), str(by_line))
            assert str(bulk).startswith(f"{path}:{b + 2 if edge == 'not-utf8' else b + 1}: ")
            return
        same_corpus(bulk, by_line)
        assert len(bulk) == (0 if edge == "empty" else n)
        if edge != "empty":
            same_corpus(load_in_bulk(path), bulk)

    def test_ragged_row_before_a_bad_split_names_the_split(self, tmp_path):
        # Corpus checks splits before vectors, so the block loop keeps the
        # rows for it and does not name the ragged vector of line 2 first.
        n = data.BLOCK_ROWS + 5
        lines = [layout_line('"s"', f'"u{i}"', '"M"', "enroll", ["0.5"] * (2 + (i == 1)))
                 for i in range(n)]
        lines[data.BLOCK_ROWS + 2] = lines[data.BLOCK_ROWS + 2].replace('"enroll"', '"train"')
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert str(exc.value) == (f"{path}:{data.BLOCK_ROWS + 3}: utterance "
                                  f"'u{data.BLOCK_ROWS + 2}' has unknown split 'train'")

    def test_bad_byte_after_a_bad_line_is_named_first(self, tmp_path):
        # UTF-8 is checked before JSON, as when the file is decoded whole, so
        # the blocks after a line the line reader refuses are still decoded
        lines = [layout_line('"s"', f'"u{i}"', '"M"', "enroll", ["0.5"])
                 for i in range(data.BLOCK_ROWS + 5)]
        lines[2] = "{not json"
        path = tmp_path / "c.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode().replace(
            f'"u{data.BLOCK_ROWS + 2}"'.encode(), b'"u\xff"'))
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert str(exc.value).startswith(f"{path}:{data.BLOCK_ROWS + 3}: 'utf-8' codec ")

    @pytest.mark.parametrize("ends, bad", [(["\r"], 701), (["\n", "\r\n", "\r"], 1101),
                                           (["\r", "\r\n"], 1499)])
    def test_bad_byte_is_named_at_its_text_line(self, tmp_path, ends, bad):
        # Lone "\r", "\r\n" and "\n" each end a line, as in text mode: a file
        # of lone "\r" ends is one stream block, the others span several.
        lines = [layout_line('"s"', f'"u{i}"', '"M"', "enroll", ["0.5"]) for i in range(1500)]
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        path = tmp_path / "c.jsonl"
        path.write_bytes(text.encode().replace(f'"u{bad - 1}"'.encode(), b'"u\xff"'))
        at = path.read_bytes().index(b"\xff")
        for load in (load_embeddings, load_trials):
            with pytest.raises(ParseError) as exc:
                load(path)
            assert str(exc.value) == (f"{path}:{bad}: 'utf-8' codec can't decode byte 0xff "
                                      f"in position {at}: invalid start byte")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("spoiled", [False, True])
    def test_pipe_is_read_once(self, tmp_path, spoiled):
        # a pipe cannot be read twice: its corpus, or its error's line, is
        # that of the same bytes in a file
        corpus = Corpus(["s"] * 3, ["u0", "u1", "u2"], ["M"] * 3, ["enroll"] * 3,
                        Prng(1).standard_normal(3, 4))
        path = tmp_path / "c.jsonl"
        save_embeddings(corpus, path)
        if spoiled:  # line 3 repeats line 1's record
            path.write_bytes(path.read_bytes().replace(b'"u2"', b'"u0"'))
        piped, want = load_piped_and_filed(path)
        if spoiled:
            assert str(want).startswith(f"{path}:3: ")
        else:
            same_corpus(piped, want)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("layout", ["json-dumps", "not-utf8"])
    def test_pipe_of_many_blocks_is_read_once(self, tmp_path, layout):
        # more than BLOCK_ROWS lines: a json.dumps layout, whose matrix grows
        # across blocks, or a byte that is not UTF-8 in the second block
        n = 2 * data.BLOCK_ROWS + 3
        corpus = Corpus([f"s{i % 7}" for i in range(n)], [f"u{i}" for i in range(n)],
                        ["M"] * n, [SPLITS[i % 3 == 0] for i in range(n)],
                        Prng(n).standard_normal(n, 3))
        saved, path = tmp_path / "saved.jsonl", tmp_path / "c.jsonl"
        save_embeddings(corpus, saved)
        if layout == "json-dumps":
            path.write_text("".join(
                json.dumps({"vector": r.vector.tolist(), "split": r.split,
                            "model_id": r.model_id, "utterance_id": r.utterance_id,
                            "speaker_id": r.speaker_id}) + "\n"
                for r in load_embeddings(saved).records))
        else:
            bad = f'"u{data.BLOCK_ROWS + 1}"'.encode()
            path.write_bytes(saved.read_bytes().replace(bad, b'"u\xff"'))
        piped, want = load_piped_and_filed(path)
        if layout == "json-dumps":
            same_corpus(piped, want)
            same_corpus(want, load_embeddings(saved))
        else:
            at = path.read_bytes().index(b"\xff")
            assert str(want) == (f"{path}:{data.BLOCK_ROWS + 2}: 'utf-8' codec can't decode "
                                 f"byte 0xff in position {at}: invalid start byte")


def load_piped_and_filed(path):
    """load_embeddings, or its error, of the file's bytes through a pipe that a
    thread fills, and of the file; a piped error is the file's but for the path."""
    read, write = os.pipe()

    def fill():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=fill)
    writer.start()
    try:
        piped = load_or_error(load_embeddings, f"/dev/fd/{read}")
    finally:
        os.close(read)
        writer.join(timeout=60)
    assert not writer.is_alive()
    want = load_or_error(load_embeddings, path)
    if not isinstance(want, Corpus):
        assert (type(piped), str(piped)) == (type(want),
                                             str(want).replace(str(path), f"/dev/fd/{read}"))
    return piped, want


# ---------------------------------------------------------------------------
# The column trial reader and writers against the per-line ones they replaced


def reference_load_trials(path):
    """load_trials as one Trial per line: the oracle for the column reader."""
    trials = []
    scores = []
    has_scores = False
    for lineno, line in enumerate(data._read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise ParseError(f"{path}:{lineno}: expected 3 or 4 columns")
        if parts[2] not in data.LABELS:
            raise UnknownLabel(f"{path}:{lineno}: unknown label {parts[2]!r}")
        trials.append(Trial(parts[0], parts[1], parts[2]))
        if len(parts) == 4:
            has_scores = True
            try:
                scores.append(float(parts[3]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad score {parts[3]!r}") from exc
    if has_scores and len(scores) != len(trials):
        raise ParseError(f"{path}: mixed scored and unscored lines")
    return TrialSet(trials, scores if has_scores else None)


def reference_save_scores(trialset, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, s in zip(trialset.trials, trialset.scores.tolist()):
            fh.write(f"{t.enroll_speaker_id}\t{t.test_utterance_id}\t{t.label}\t"
                     f"{FLOAT_FMT % s}\n")


def same_trial_columns(got, want):
    assert (got.enroll_keys, got.test_keys) == (want.enroll_keys, want.test_keys)
    for name in ("enroll_rows", "test_rows", "target"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if want.scores is None:
        assert got.scores is None
    else:
        assert got.scores.dtype == np.float64
        assert got.scores.tobytes() == want.scores.tobytes()


# Ids without the tab that separates fields or a character that ends a line;
# \x0b, \x1c and \u2028 end a line only for str.splitlines.
trial_ids = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"),
                    max_size=4)
# Scores as save_scores writes them, and texts that only float() reads.
score_texts = st.one_of(finite.map(FLOAT_FMT.__mod__), finite.map(repr),
                        st.sampled_from(["1_0", " 2", "nan", "-inf", "1e400", "+.5 ",
                                         "٣"]))


@st.composite
def trial_files(draw):
    """The text of a trial file of 3 or 4 fields per line, with blank lines
    and CRLF or CR endings drawn in, and up to two lines spoiled: a wrong
    field count, an unknown label, a bad score or the other field count."""
    width = draw(st.sampled_from([3, 4]))
    rows = [[draw(trial_ids), draw(trial_ids), draw(st.sampled_from(data.LABELS))]
            + [draw(score_texts)] * (width == 4)
            for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        what = draw(st.sampled_from(["fields", "label", "score", "width"]))
        if what == "fields":
            del row[draw(st.integers(0, len(row) - 1)):]
            row += draw(st.sampled_from([[], [" "], ["a", "b", "c", "d"]]))
        elif what == "label":
            row[2] = draw(st.sampled_from(["Target", "genuine", "", " target"]))
        elif what == "score":
            row[3:] = [draw(st.sampled_from(["", "x", "1,5", "0x10", "1e", "--1"]))]
        else:
            row[3:] = [] if len(row) == 4 else [draw(score_texts)]
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = ""
    for row in rows:
        text += draw(st.sampled_from(["", "", "\n", "\r\n"]))
        text += "\t".join(row) + draw(ends)
    return text + draw(st.sampled_from(["", "\n"]))


class TestColumnTrialReader:
    @given(trial_files())
    def test_same_columns_and_errors_as_per_line_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            path.write_bytes(text.encode())
            try:
                want = reference_load_trials(path)
            except SidAlignError as exc:
                with pytest.raises(SidAlignError) as got:
                    load_trials(path)
                assert type(got.value) is type(exc)
                assert str(got.value) == str(exc)
                return
            got = load_trials(path)
        same_trial_columns(got, want)
        assert got.trials == want.trials

    @pytest.mark.parametrize("text, error, message", [
        ("a\tu\ttarget\na\tu\n", ParseError, ":2: expected 3 or 4 columns"),
        ("a\tu\ttarget\t1\tx\n", ParseError, ":1: expected 3 or 4 columns"),
        ("a\tu\tgenuine\t1\n", UnknownLabel, ":1: unknown label 'genuine'"),
        ("a\tu\ttarget\tx\na\tu\tgenuine\t1\n", ParseError, ":1: bad score 'x'"),
        ("a\tu\ttarget\t1\na\tu\timposter\n", ParseError,
         ": mixed scored and unscored lines"),
        ("a\tu\ttarget\r\n\r\nb\tv\n", ParseError, ":3: expected 3 or 4 columns"),
    ])
    def test_spoiled_file_names_first_bad_line(self, tmp_path, text, error, message):
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode())
        with pytest.raises(error) as got:
            load_trials(path)
        assert str(got.value) == f"{path}{message}"

    def test_scores_only_float_reads(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a\tu\ttarget\t1_0\na\tv\timposter\t 2\nb\tu\timposter\tnan\n")
        scores = load_trials(path).scores
        assert scores[:2].tolist() == [10.0, 2.0] and np.isnan(scores[2])

    def test_reading_builds_no_trial(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a\tu\ttarget\t0.5\nb\tu\timposter\t-0.25\n")
        with mock.patch.object(data, "Trial", side_effect=AssertionError("built")):
            ts = load_trials(path)
            save_scores(ts, tmp_path / "again.tsv")
            save_trials(ts, tmp_path / "trials.tsv")
            assert len(ts) == 2
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()
        assert ts.trials == [Trial("a", "u", "target"), Trial("b", "u", "imposter")]

    @given(st.lists(st.tuples(trial_ids, trial_ids, st.sampled_from(data.LABELS),
                              st.floats(width=64)), max_size=8))
    def test_writers_write_the_per_line_bytes(self, rows):
        ts = TrialSet([Trial(*row[:3]) for row in rows], [row[3] for row in rows])
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.tsv", Path(tmp) / "want.tsv"
            save_scores(ts, got)
            reference_save_scores(ts, want)
            assert got.read_bytes() == want.read_bytes()
            save_trials(ts, got)
            assert got.read_bytes() == b"".join(
                f"{e}\t{u}\t{label}\n".encode() for e, u, label, _ in rows)

    def test_of_columns_refuses_unknown_label(self):
        with pytest.raises(UnknownLabel, match="'genuine'"):
            TrialSet.of_columns(["a", "b"], ["u", "v"], ["target", "genuine"])


class TestCorpus:
    def test_duplicate_record_rejected(self):
        with pytest.raises(ParseError):
            corpus_of([rec("a", "u1", [1, 0]), rec("b", "u1", [0, 1])])

    def test_lookup(self):
        c = corpus_of([rec("a", "u1", [1, 0], "runtime")])
        assert (c.speakers, c.utterances, c.rows("runtime")) == (["a"], ["u1"], [0])
        assert (c.model_id, c.dim) == ("X", 2)

    def test_iteration_yields_the_rows_as_records(self):
        records = [rec("a", "u1", [1.0, 0.0], "runtime"), rec("b", "u2", [0.5, 2.0]),
                   rec("a", "u3", [0.0, -1.0])]
        c = corpus_of(records)
        assert len(list(c)) == len(c.records) == len(records)
        for got, by_property, want in zip(list(c), c.records, records):
            for key in FIELDS[:4]:
                assert getattr(got, key) == getattr(by_property, key) == getattr(want, key)
            assert got.vector.tobytes() == by_property.vector.tobytes()
            np.testing.assert_array_equal(got.vector, want.vector)
        assert list(corpus_of([])) == corpus_of([]).records == []

    def test_empty(self):
        c = corpus_of([])
        assert (c.model_id, c.dim) == (None, None)
        with pytest.raises(EmptyEnrollment):
            c.profiles

    @pytest.mark.parametrize("bad", [0, data.BLOCK_ROWS - 1, data.BLOCK_ROWS,
                                     2 * data.BLOCK_ROWS + 3])
    def test_first_non_finite_row_named_across_check_blocks(self, bad):
        # Finiteness is checked BLOCK_ROWS rows at a time; a later bad row too.
        n = 3 * data.BLOCK_ROWS
        vectors = Prng(bad).standard_normal(n, 3)
        vectors[bad, 1], vectors[n - 1, 0] = np.nan, np.inf
        with pytest.raises(ParseError, match=f"^non-finite vector in utterance 'u{bad}'$"):
            Corpus(["s"] * n, [f"u{i}" for i in range(n)], ["M"] * n, ["enroll"] * n, vectors)

    def test_second_model_rejected_naming_utterance(self):
        with pytest.raises(ModelMismatch, match="u2"):
            corpus_of([rec("a", "u1", [1, 0]), rec("a", "u2", [0, 1], model="Y")])

    def test_load_names_file_of_mixed_models(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        save_embeddings(corpus_of([rec("a", "u1", [1, 0])]), path)
        with open(path, "a") as fh:
            fh.write('{"speaker_id": "a", "utterance_id": "u2", "model_id": "Y", '
                     '"split": "enroll", "vector": [0, 1]}\n')
        with pytest.raises(ModelMismatch, match="mixed.jsonl.*u2"):
            load_embeddings(path)

    @pytest.mark.parametrize("column", range(3))
    def test_ids_must_be_strings(self, tmp_path, column):
        # In memory, where save_embeddings would end in a TypeError, and in
        # a file, where the error names the line.
        ids = [["a", "b"], ["u1", "u2"], ["M", "M"]]
        ids[column][1] = 7
        with pytest.raises(ParseError, match="ids must be strings: row 1 has"):
            Corpus(*ids, ["enroll"] * 2, np.eye(2))
        path = tmp_path / "ids.jsonl"
        path.write_text("".join(json.dumps(dict(zip(FIELDS, row))) + "\n" for row in zip(
            *ids, ["enroll"] * 2, [[1.0, 0.0], [0.0, 1.0]])))
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:2: ids must be"):
            load_embeddings(path)


# ---------------------------------------------------------------------------
# The writers' bytes, pinned: rewriting a writer must not move one byte.


def writer_outputs(tmp_path):
    """{writer: bytes written} on Prng arrays (no BLAS) and ids with a quote
    and a non-ASCII character."""
    from sidalign.logit import FusionTransform, save_fusion

    prng = Prng(11)
    speakers = ['s"0', "sé1", "s2"]
    utterances = [f"{speaker}_u{i}" for i in range(2) for speaker in speakers]
    corpus = Corpus(speakers * 2, utterances, ["Mü"] * 6,
                    ["enroll", "runtime"] * 3, prng.standard_normal(6, 4))
    profiles = profile_corpus(speakers, "Mü", prng.standard_normal(3, 4))
    trials = TrialSet([Trial(s, u, label) for s, u, label in
                       zip(speakers * 2, utterances, ["target", "imposter"] * 3)],
                      prng.standard_normal(6).tolist())
    fusion = FusionTransform(prng.standard_normal(8, 8), 4, 3)
    writers = {
        "save_embeddings": lambda path: save_embeddings(corpus, path),
        "save_embeddings_profiles": lambda path: save_embeddings(profiles, path),
        "save_trials": lambda path: save_trials(trials, path),
        "save_scores": lambda path: save_scores(trials, path),
        "save_fusion": lambda path: save_fusion(fusion, path, extra={"seed": 1}),
    }
    out = {}
    for name, write in writers.items():
        write(tmp_path / name)
        out[name] = (tmp_path / name).read_bytes()
    return out


# Measured at the per-line writers these replaced; save_fusion measured again
# when fusion files lost their "jitter_applied" key (the old bytes without it).
# save_embeddings_profiles is a profile set, pinned to the bytes that the
# profiles writer wrote before profile sets were corpora.
WRITER_SHA256 = {
    "save_embeddings": "c9bc18d3a98c561e78f063a3adf864e9fc3bcfeaea306c0eff7c8ae8176df0c1",
    "save_embeddings_profiles":
        "4ac945bdaab5e64d1e740cf78d847607c3b35d9c754cb82a24c1fb34f9c6e916",
    "save_trials": "4aafce44850ebe32ad765ff02724d718e151ad69a764210f9e14a6204404bf03",
    "save_scores": "038f5185805f8b581faba21cf78dba233edc74cbcfa3733f546c63ff3a7a5166",
    "save_fusion": "e0aed6caf39efa942531d2719c2c8ad4057b97cf13f26c8610fce9894e0e870d",
}


def test_writers_bytes_pinned(tmp_path):
    got = {name: hashlib.sha256(raw).hexdigest()
           for name, raw in writer_outputs(tmp_path).items()}
    assert got == WRITER_SHA256


def test_only_data_opens_files_or_parses_json():
    """data.py is the one module that opens a file or calls json.loads; the
    others read and write artifacts through its helpers."""
    package = Path(data.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "open"
                    or ast.unparse(node.func) == "json.loads"):
                callers.add(path.name)
    assert callers == {"data.py"}


def test_every_imported_name_is_used():
    """Each name that a module of the package (but __init__.py, which
    re-exports) or of the tests imports is read in that module, so that no
    import outlives the code that used it."""
    package = Path(data.__file__).parent
    paths = ([path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
             + sorted(Path(__file__).parent.glob("*.py")))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
