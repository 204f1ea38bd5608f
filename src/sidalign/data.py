"""Domain data model: embedding records, voice profiles, trials, and file IO.

File formats:
  * embeddings / profiles: UTF-8 JSONL, one object per line with keys
    speaker_id, utterance_id, model_id, split ("enroll"|"runtime"),
    vector (list of floats, 9 significant digits on disk).
  * trials: TSV ``enroll_speaker_id \\t test_utterance_id \\t target|imposter``.
  * scores: trial columns plus a score column (9 significant digits).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEnrollment,
    ModelMismatch,
    ParseError,
    SidAlignError,
    UnknownLabel,
    ZeroVector,
)
from .numerics import length_normalize

SPLITS = ("enroll", "runtime")
LABELS = ("target", "imposter")

# 9 significant digits round-trips any float32 payload exactly.
FLOAT_FMT = "%.9g"


def format_float(x: float) -> str:
    return FLOAT_FMT % x


@dataclass
class EmbeddingRecord:
    speaker_id: str
    utterance_id: str
    model_id: str
    split: str
    vector: np.ndarray

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ParseError(f"unknown split {self.split!r}")
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise DimensionMismatch(
                f"utterance {self.utterance_id!r} has a vector of shape "
                f"{self.vector.shape}, expected 1-D")
        if not np.all(np.isfinite(self.vector)):
            raise ZeroVector(f"non-finite vector in utterance {self.utterance_id!r}")


@dataclass
class VoiceProfile:
    speaker_id: str
    model_id: str
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        norm = np.linalg.norm(self.vector)
        if abs(norm - 1.0) > 1e-9:
            raise ZeroVector(
                f"profile for {self.speaker_id!r} has norm {norm:.12g}, expected 1"
            )


class Corpus:
    """Immutable-after-construction records of one model, all of one dimension."""

    def __init__(self, records=None):
        self.records: list[EmbeddingRecord] = list(records or [])
        first = self.records[0] if self.records else None
        self.model_id: str | None = first.model_id if first else None
        self.dim: int | None = first.vector.shape[0] if first else None
        self._by_key: dict[tuple[str, str], EmbeddingRecord] = {}
        for rec in self.records:
            if rec.model_id != self.model_id:
                raise ModelMismatch(
                    f"utterance {rec.utterance_id!r} is of model {rec.model_id!r}, "
                    f"the corpus holds model {self.model_id!r}")
            if rec.vector.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"utterance {rec.utterance_id!r} has dimension "
                    f"{rec.vector.shape[0]}, the corpus uses {self.dim}")
            key = (rec.utterance_id, rec.split)
            if key in self._by_key:
                raise ParseError(f"duplicate record {key}")
            self._by_key[key] = rec

    @cached_property
    def profiles(self) -> list[VoiceProfile]:
        """The voice profile of every enrolled speaker, built from the
        enrollment records on first use."""
        return build_all_profiles(self, self.model_id)

    def record(self, utterance_id: str, split: str) -> EmbeddingRecord:
        return self._by_key[(utterance_id, split)]

    def speaker_ids(self, split: str | None = None) -> list[str]:
        """Speakers in first-record order, of one split or of all."""
        return list(dict.fromkeys(rec.speaker_id for rec in self.records
                                  if split is None or rec.split == split))


@dataclass
class Trial:
    enroll_speaker_id: str
    test_utterance_id: str
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise UnknownLabel(f"unknown trial label {self.label!r}")


@dataclass
class TrialSet:
    trials: list[Trial]
    scores: list[float] | None = None

    def __post_init__(self):
        if self.scores is not None and len(self.scores) != len(self.trials):
            raise DimensionMismatch("scores and trials must have equal length")

    def labels01(self) -> np.ndarray:
        return np.array([1 if t.label == "target" else 0 for t in self.trials])


def build_voice_profile(records) -> VoiceProfile:
    """The profile of one speaker's enrollment records."""
    records = list(records)
    if not records:
        raise EmptyEnrollment("cannot build a profile from zero records")
    speaker = records[0].speaker_id
    for rec in records:
        if rec.speaker_id != speaker:
            raise ModelMismatch(f"record {rec.utterance_id!r} of {rec.speaker_id!r} "
                                f"in the profile of {speaker!r}")
    return build_all_profiles(Corpus(records), records[0].model_id)[0]


def build_all_profiles(corpus: Corpus, model_id: str) -> list[VoiceProfile]:
    """One profile per enrolled speaker, in first-record order: normalize
    each enrollment embedding, average per speaker, normalize again."""
    if model_id != corpus.model_id:
        raise ModelMismatch(f"profiles of model {model_id!r} asked of a corpus "
                            f"of model {corpus.model_id!r}")
    by_speaker: dict[str, list[np.ndarray]] = {}
    for rec in corpus.records:
        if rec.split == "enroll":
            by_speaker.setdefault(rec.speaker_id, []).append(rec.vector)
    if not by_speaker:
        raise EmptyEnrollment("no enrollment records to build profiles from")
    units = length_normalize(np.stack([v for vs in by_speaker.values() for v in vs]))
    ends = np.cumsum([len(vs) for vs in by_speaker.values()])
    # mean(axis=0) over each speaker's block: the same additions in the same
    # order as over the speaker's rows alone, so the bits do not depend on
    # the other speakers or on how the records interleave.
    means = np.stack([block.mean(axis=0) for block in np.split(units, ends[:-1])])
    return [VoiceProfile(speaker, model_id, v)
            for speaker, v in zip(by_speaker, length_normalize(means))]


# ---------------------------------------------------------------------------
# File IO


def _record_to_json(rec: EmbeddingRecord) -> str:
    # json.dumps would re-expand the rounded floats; emit the vector manually.
    head = json.dumps({"speaker_id": rec.speaker_id, "utterance_id": rec.utterance_id,
                       "model_id": rec.model_id, "split": rec.split})
    vec = ",".join(format_float(x) for x in rec.vector)
    return head[:-1] + ', "vector": [' + vec + "]}"


def save_embeddings(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in corpus.records:
            fh.write(_record_to_json(rec) + "\n")


def load_embeddings(path) -> Corpus:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = EmbeddingRecord(obj["speaker_id"], obj["utterance_id"],
                                      obj["model_id"], obj["split"], obj["vector"])
            except (ValueError, KeyError, TypeError, SidAlignError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            records.append(rec)
    try:
        return Corpus(records)
    except SidAlignError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_profiles(profiles, path) -> None:
    """Profiles reuse the embedding JSONL schema; the utterance id slot holds
    'profile:<speaker_id>' so records stay unique within the file."""
    recs = [
        EmbeddingRecord(p.speaker_id, f"profile:{p.speaker_id}", p.model_id,
                        "enroll", p.vector)
        for p in profiles
    ]
    save_embeddings(Corpus(recs), path)


def load_profiles(path) -> list[VoiceProfile]:
    records = load_embeddings(path).records
    if not records:
        return []
    # Re-normalize: 9-digit serialization perturbs the unit norm slightly.
    vectors = length_normalize(np.stack([rec.vector for rec in records]))
    return [VoiceProfile(rec.speaker_id, rec.model_id, v)
            for rec, v in zip(records, vectors)]


def load_trials(path) -> TrialSet:
    trials = []
    scores = []
    has_scores = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise ParseError(f"{path}:{lineno}: expected 3 or 4 columns")
            if parts[2] not in LABELS:
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


def save_trials(trialset: TrialSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in trialset.trials:
            fh.write(f"{t.enroll_speaker_id}\t{t.test_utterance_id}\t{t.label}\n")


def save_scores(trialset: TrialSet, path) -> None:
    if trialset.scores is None:
        raise ParseError("trial set has no scores to save")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, s in zip(trialset.trials, trialset.scores):
            fh.write(
                f"{t.enroll_speaker_id}\t{t.test_utterance_id}\t{t.label}\t"
                f"{format_float(s)}\n"
            )
