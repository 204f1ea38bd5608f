"""Speaker-logit-space alignment and the fused equivalent scoring.

Profiles from a shared speaker set form per-model weight matrices. Scoring an
enrollment profile against a runtime embedding is the cosine of their logit
vectors; the triangular factor of the two weight matrices stacked side by
side (the R of their QR) gives a 2d x 2d fused transform whose cost is
independent of the number of alignment speakers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Corpus, _load_json, _write_text, rows_of
from .errors import (
    DimensionMismatch,
    InsufficientData,
    MissingSpeaker,
    SpeakerOrderMismatch,
)
from .metrics import cosine_scorer
from .numerics import cholesky_upper, cosine_similarity

FUSION_FLOAT_FMT = "%.17g"


@dataclass
class WeightMatrix:
    speaker_order: list[str]
    w: np.ndarray  # (N, d), unit-norm rows

    @property
    def n_speakers(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.w.shape[1]


@dataclass
class FusionTransform:
    m: np.ndarray  # (2d, 2d), upper triangular
    d: int
    n_speakers: int


def build_weight_matrix(profiles: Corpus, speaker_order) -> WeightMatrix:
    """The rows of a profile set (data.profile_corpus, of one model) for the
    distinct speakers of speaker_order, in that order; a speaker without a
    profile is MissingSpeaker, the first one in the order named."""
    speaker_order = list(speaker_order)
    if not speaker_order:
        raise InsufficientData("no speakers to build a weight matrix of")
    if len(set(speaker_order)) != len(speaker_order):
        raise SpeakerOrderMismatch("speaker_order contains duplicates")
    rows = rows_of(speaker_order, profiles.speakers)
    if (rows < 0).any():
        spk = speaker_order[int(np.argmax(rows < 0))]
        raise MissingSpeaker(f"no profile for speaker {spk!r}")
    return WeightMatrix(speaker_order, profiles.vectors[rows])


def _check_pair(w_x: WeightMatrix, w_y: WeightMatrix):
    if w_x.speaker_order != w_y.speaker_order:
        raise SpeakerOrderMismatch("weight matrices use different speaker orders")
    if w_x.dim != w_y.dim:
        raise DimensionMismatch(
            f"embedding dims differ: {w_x.dim} vs {w_y.dim} (equal dims required)"
        )


def logit_score_direct(e_x, r_y, w_x: WeightMatrix, w_y: WeightMatrix) -> float:
    """Cosine of the two N-dimensional logit vectors; the brute-force oracle."""
    _check_pair(w_x, w_y)
    e_x = np.asarray(e_x, dtype=np.float64)
    r_y = np.asarray(r_y, dtype=np.float64)
    if e_x.shape[0] != w_x.dim or r_y.shape[0] != w_y.dim:
        raise DimensionMismatch("embedding dimension does not match weight matrix")
    return cosine_similarity(w_x.w @ e_x, w_y.w @ r_y)


def compute_fusion_transform(w_x: WeightMatrix, w_y: WeightMatrix) -> FusionTransform:
    _check_pair(w_x, w_y)
    m = cholesky_upper(np.hstack([w_x.w, w_y.w]))  # of the (N, 2d) stack
    return FusionTransform(m, w_x.dim, w_x.n_speakers)


def fusion_maps(f: FusionTransform):
    """(enrollment map, runtime map): the two column blocks of the fused
    transform applied to (n, d) row batches. The zero-padded products
    m @ [e; 0] and m @ [0; r] reduce to these blocks, so the cosine of the
    two outputs is the logit score."""
    def checked(rows):
        if rows.shape[1] != f.d:
            raise DimensionMismatch(f"expected dimension {f.d} inputs")
        return rows
    return (lambda e: checked(e) @ f.m[:, : f.d].T,
            lambda r: checked(r) @ f.m[:, f.d :].T)


def logit_score_fused_batch(e_batch: np.ndarray, r_batch: np.ndarray,
                            f: FusionTransform) -> np.ndarray:
    """Fused scores of parallel (profile, runtime) rows: the cosine of the
    two block products."""
    enroll_map, runtime_map = fusion_maps(f)
    return cosine_scorer(enroll_map(e_batch), runtime_map(r_batch))


def save_fusion(f: FusionTransform, path, extra: dict | None = None) -> None:
    obj = dict(extra or {})
    obj.update({"d": f.d, "N": f.n_speakers})
    head = json.dumps(obj)
    vals = ",".join(FUSION_FLOAT_FMT % x for x in f.m.ravel())
    _write_text(path, head[:-1] + ', "m": [' + vals + "]}\n")


def load_fusion(path) -> FusionTransform:
    # Integers parse as floats: save_fusion writes -0.0 as "-0".
    return _load_json(path, "fusion transform", _fusion_of, parse_int=float)


def _fusion_of(obj: dict) -> FusionTransform:
    """A fusion file's object as a transform: d and N whole numbers >= 1."""
    d, n = (obj[key] for key in ("d", "N"))
    if not all(type(v) is float and v.is_integer() and v >= 1 for v in (d, n)):
        raise ValueError(f"d = {d!r} and N = {n!r} must be whole numbers >= 1")
    m = np.array(obj["m"], dtype=np.float64).reshape(2 * int(d), 2 * int(d))
    if not np.isfinite(m).all():
        raise ValueError("m has a non-finite entry")
    return FusionTransform(m, int(d), int(n))
