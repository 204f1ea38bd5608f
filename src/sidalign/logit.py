"""Speaker-logit-space alignment and the Cholesky-fused equivalent scoring.

Profiles from a shared speaker set form per-model weight matrices. Scoring an
enrollment profile against a runtime embedding is the cosine of their logit
vectors; stacking the two weight matrices side by side and factoring the
2d x 2d Gram matrix gives a fused transform whose cost is independent of the
number of alignment speakers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingSpeaker,
    ModelMismatch,
    ParseError,
    SpeakerOrderMismatch,
)
from .metrics import cosine_scorer
from .numerics import cholesky_upper, cosine_similarity

FUSION_FLOAT_FMT = "%.17g"


@dataclass
class WeightMatrix:
    model_id: str
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
    jitter_applied: float


def build_weight_matrix(profiles, speaker_order) -> WeightMatrix:
    speaker_order = list(speaker_order)
    if len(set(speaker_order)) != len(speaker_order):
        raise SpeakerOrderMismatch("speaker_order contains duplicates")
    by_id = {}
    model_id = None
    for p in profiles:
        if model_id is None:
            model_id = p.model_id
        elif p.model_id != model_id:
            raise ModelMismatch(f"mixed models {model_id!r} and {p.model_id!r}")
        by_id[p.speaker_id] = p
    rows = []
    for spk in speaker_order:
        if spk not in by_id:
            raise MissingSpeaker(f"no profile for speaker {spk!r}")
        rows.append(by_id[spk].vector)
    return WeightMatrix(model_id, speaker_order, np.stack(rows))


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
    stacked = np.hstack([w_x.w, w_y.w])  # (N, 2d)
    gram = stacked.T @ stacked
    m, jitter = cholesky_upper(gram)
    return FusionTransform(m, w_x.dim, w_x.n_speakers, jitter)


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
    obj.update(
        {
            "d": f.d,
            "N": f.n_speakers,
            "jitter_applied": float(FUSION_FLOAT_FMT % f.jitter_applied),
        }
    )
    head = json.dumps(obj)
    vals = ",".join(FUSION_FLOAT_FMT % x for x in f.m.ravel())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head[:-1] + ', "m": [' + vals + "]}\n")


def load_fusion(path) -> FusionTransform:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            d = int(obj["d"])
            m = np.array(obj["m"], dtype=np.float64).reshape(2 * d, 2 * d)
            return FusionTransform(m, d, int(obj["N"]), float(obj["jitter_applied"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: malformed fusion transform: {exc!r}") from exc
