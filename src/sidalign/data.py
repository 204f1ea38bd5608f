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

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEnrollment,
    ModelMismatch,
    ParseError,
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
    """Immutable-after-construction collection of records and profiles."""

    def __init__(self, records=None, profiles=None):
        self.records: list[EmbeddingRecord] = list(records or [])
        self.profiles: list[VoiceProfile] = list(profiles or [])
        self._dims: dict[str, int] = {}
        self._by_key: dict[tuple[str, str, str], EmbeddingRecord] = {}
        for rec in self.records:
            self._index(rec)
        self._profile_by_id = {(p.model_id, p.speaker_id): p for p in self.profiles}

    def _index(self, rec: EmbeddingRecord):
        d = rec.vector.shape[0]
        known = self._dims.setdefault(rec.model_id, d)
        if known != d:
            raise DimensionMismatch(
                f"utterance {rec.utterance_id!r} has dimension {d}, "
                f"model {rec.model_id!r} uses {known}"
            )
        key = (rec.model_id, rec.utterance_id, rec.split)
        if key in self._by_key:
            raise ParseError(f"duplicate record {key}")
        self._by_key[key] = rec

    def dimension(self, model_id: str) -> int:
        return self._dims[model_id]

    @property
    def model_ids(self):
        return sorted(self._dims)

    def record(self, model_id: str, utterance_id: str, split: str) -> EmbeddingRecord:
        return self._by_key[(model_id, utterance_id, split)]

    def speaker_ids(self, split: str | None = None):
        seen = []
        marked = set()
        for rec in self.records:
            if split is not None and rec.split != split:
                continue
            if rec.speaker_id not in marked:
                marked.add(rec.speaker_id)
                seen.append(rec.speaker_id)
        return seen

    def profile(self, speaker_id: str, model_id: str | None = None) -> VoiceProfile:
        if model_id is None:
            model_id = self.model_ids[0]
        return self._profile_by_id[(model_id, speaker_id)]


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
    """Normalize each enrollment embedding, average, normalize again."""
    records = list(records)
    if not records:
        raise EmptyEnrollment("cannot build a profile from zero records")
    speaker = records[0].speaker_id
    model = records[0].model_id
    for rec in records:
        if rec.speaker_id != speaker:
            raise ModelMismatch(
                f"mixed speakers {speaker!r} and {rec.speaker_id!r} in one profile"
            )
        if rec.model_id != model:
            raise ModelMismatch(
                f"mixed models {model!r} and {rec.model_id!r} in one profile"
            )
    stacked = np.stack([length_normalize(rec.vector) for rec in records])
    mean = stacked.mean(axis=0)
    return VoiceProfile(speaker, model, length_normalize(mean))


def build_all_profiles(corpus: Corpus, model_id: str) -> list[VoiceProfile]:
    profiles = []
    by_speaker: dict[str, list[EmbeddingRecord]] = {}
    order = []
    for rec in corpus.records:
        if rec.model_id == model_id and rec.split == "enroll":
            if rec.speaker_id not in by_speaker:
                by_speaker[rec.speaker_id] = []
                order.append(rec.speaker_id)
            by_speaker[rec.speaker_id].append(rec)
    for speaker in order:
        profiles.append(build_voice_profile(by_speaker[speaker]))
    return profiles


# ---------------------------------------------------------------------------
# File IO


def _record_to_json(rec: EmbeddingRecord) -> str:
    obj = {
        "speaker_id": rec.speaker_id,
        "utterance_id": rec.utterance_id,
        "model_id": rec.model_id,
        "split": rec.split,
        "vector": [float(format_float(x)) for x in rec.vector],
    }
    # json.dumps would re-expand the rounded floats; emit the vector manually.
    head = json.dumps(
        {k: obj[k] for k in ("speaker_id", "utterance_id", "model_id", "split")}
    )
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
                rec = EmbeddingRecord(
                    speaker_id=obj["speaker_id"],
                    utterance_id=obj["utterance_id"],
                    model_id=obj["model_id"],
                    split=obj["split"],
                    vector=obj["vector"],
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            records.append(rec)
    return Corpus(records)


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
    corpus = load_embeddings(path)
    out = []
    for rec in corpus.records:
        # Re-normalize: 9-digit serialization perturbs the unit norm slightly.
        out.append(VoiceProfile(rec.speaker_id, rec.model_id, length_normalize(rec.vector)))
    return out


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
