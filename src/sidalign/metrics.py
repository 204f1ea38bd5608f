"""Verification metrics: ROC sweep, FRR at fixed FAR, EER, relative impact.

Accept rule is ``score >= threshold``; ties count as accepts for both error
types. The ROC is the exact empirical curve over the unique scores plus a
+inf threshold, so the (FAR=1, FRR=0) and (FAR=0, FRR=1) endpoints are always
present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import FLOAT_FMT, TrialSet, _load_json, _write_text, row_blocks, rows_of
from .errors import (
    BaselineZero,
    DegenerateGap,
    DegenerateTrialSet,
    DimensionMismatch,
    UnknownId,
    ZeroVector,
)
from .numerics import EPS_NORM

DEFAULT_FAR_TARGETS = (0.125, 0.05, 0.02)


@dataclass
class RocCurve:
    thresholds: np.ndarray  # increasing; last entry is +inf
    far: np.ndarray  # non-increasing along thresholds
    frr: np.ndarray  # non-decreasing along thresholds
    n_target: int
    n_imposter: int


def roc(scores, labels) -> RocCurve:
    """Exact empirical FAR/FRR sweep; labels are 1 = target, 0 = imposter
    (a bool target mask reads the same)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise DegenerateTrialSet(f"{bad} of {len(scores)} scores are not finite")
    tar = scores[labels == 1]
    imp = scores[labels == 0]
    if len(tar) == 0 or len(imp) == 0:
        raise DegenerateTrialSet("need at least one target and one imposter trial")
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    # accept iff score >= threshold: with each class sorted once, the count of
    # scores below a threshold is its left insertion point (Fawcett 2006, Alg. 1).
    # tar and imp are copies already, so they are sorted in place.
    tar.sort()
    imp.sort()
    n_imp = len(imp)
    far = (n_imp - np.searchsorted(imp, thresholds, "left")) / n_imp
    frr = np.searchsorted(tar, thresholds, "left") / len(tar)
    return RocCurve(thresholds, far, frr, len(tar), n_imp)


def frr_at_far(curve: RocCurve, target_far: float) -> tuple[float, float]:
    """Lowest FRR achievable at an operating threshold with FAR <= target.

    Returns (frr, threshold). No interpolation: the reported FRR is realized
    at the returned threshold.
    """
    if not (0 < target_far < 1):
        raise DegenerateTrialSet(f"target FAR must be in (0, 1), got {target_far}")
    ok = curve.far <= target_far
    idx = np.nonzero(ok)[0]
    best = idx[np.argmin(curve.frr[idx])]
    return float(curve.frr[best]), float(curve.thresholds[best])


def eer(curve: RocCurve) -> float:
    """FAR = FRR crossing with linear interpolation between curve points."""
    diff = curve.far - curve.frr
    # diff starts >= 0 (FAR=1, FRR=0) and ends <= 0 (FAR=0, FRR=1); the EER
    # sits at the first point that is on the line or just before it crosses.
    d0, d1 = diff[:-1], diff[1:]
    hits = np.flatnonzero((d0 == 0) | ((d0 > 0) & (d1 <= 0)))
    if len(hits) == 0:
        return float(curve.far[-1])
    i = hits[0]
    if d0[i] == 0:
        return float(curve.far[i])
    t = d0[i] / (d0[i] - d1[i])
    return float(curve.frr[i] + t * (curve.frr[i + 1] - curve.frr[i]))


def relative_impact(frr_base: float, frr_sys: float) -> float:
    """Percent FRR change vs the baseline; positive = better than baseline."""
    if frr_base <= 0:
        raise BaselineZero("baseline FRR must be > 0")
    return 100.0 * (frr_base - frr_sys) / frr_base


def gap_recovery(impact_sys: float, impact_candidate_symmetric: float) -> float:
    """Fraction of the symmetric candidate-model gain achieved by the system."""
    if impact_candidate_symmetric <= 0:
        raise DegenerateGap("candidate symmetric impact must be > 0")
    return impact_sys / impact_candidate_symmetric


def score_trials(trialset: TrialSet, scorer, profile_vectors: dict,
                 runtime_vectors: dict, enroll_map=None, runtime_map=None) -> TrialSet:
    """Score every trial with a batch scorer (P, R) -> scores.

    profile_vectors maps enroll_speaker_id to a vector, runtime_vectors maps
    test_utterance_id to a vector. Each side is stacked once, in dict order,
    and a side's map, if given, takes that (n, d) block and runs once over
    every vector of its side (the offline-profile property of m2/m3). The
    block is then read as float64. The scorer is called once per
    data.row_blocks block of trials, in list order, on that block's rows
    gathered by the list's index columns, and must give one score per trial
    of the block; the scores go into one float64 array, so the memory beyond
    the inputs and the scores does not grow with the trial count. An id
    without a vector is UnknownId, found before any row is gathered.
    """
    blocks = [_stacked(vectors, fn) for vectors, fn in
              ((profile_vectors, enroll_map), (runtime_vectors, runtime_map))]
    p_rows = rows_of(trialset.enroll_keys, profile_vectors)[trialset.enroll_rows]
    r_rows = rows_of(trialset.test_keys, runtime_vectors)[trialset.test_rows]
    unknown = (p_rows < 0) | (r_rows < 0)
    if unknown.any():  # the first such trial; its enroll speaker is looked at first
        i = int(np.argmax(unknown))
        if p_rows[i] < 0:
            speaker = trialset.enroll_keys[trialset.enroll_rows[i]]
            raise UnknownId(f"unknown enroll speaker {speaker!r}")
        utterance = trialset.test_keys[trialset.test_rows[i]]
        raise UnknownId(f"unknown test utterance {utterance!r}")
    scores = np.empty(len(trialset))
    for block in row_blocks(len(scores)):
        part = scorer(blocks[0][p_rows[block]], blocks[1][r_rows[block]])
        if np.shape(part) != scores[block].shape:  # no scalar broadcast
            raise DimensionMismatch("scores and trials must have equal length")
        scores[block] = part
    return trialset.with_scores(scores)


def _stacked(vectors: dict, fn) -> np.ndarray | None:
    """The vectors stacked in dict order and mapped by fn (None: as they
    are), as C-contiguous float64; None for no vectors. A map may overflow
    without a warning: the scorer refuses every non-finite row it gives."""
    if not vectors:
        return None
    block = np.array(list(vectors.values()))  # np.stack's rows, in one pass
    if fn is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            block = fn(block)
    return np.ascontiguousarray(block, dtype=np.float64)


def cosine_scorer(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise cosine of parallel rows of one shape; a row whose norm is not
    in (EPS_NORM, inf) (zero, NaN or overflowed) raises ZeroVector instead of
    scoring NaN or 0."""
    if p.shape != r.shape:
        raise DimensionMismatch(f"no cosine of profile rows of shape {p.shape} and "
                                f"runtime rows of shape {r.shape}")
    with np.errstate(over="ignore"):  # an overflowed norm is refused below
        p_norm, r_norm = np.linalg.norm(p, axis=1), np.linalg.norm(r, axis=1)
    if not all(((norm > EPS_NORM) & (norm < np.inf)).all() for norm in (p_norm, r_norm)):
        raise ZeroVector("cosine of a row whose norm is zero or not finite")
    return np.sum(p * r, axis=1) / (p_norm * r_norm)


def far_key(far) -> str:
    """A target FAR's key in evaluate's FRR, impact and gap-recovery maps: its
    FLOAT_FMT text, so two targets that print alike share one key."""
    return FLOAT_FMT % far


def evaluate(trialset: TrialSet, scorer_id: str,
             far_targets=DEFAULT_FAR_TARGETS,
             baseline_frrs: dict | None = None,
             candidate_impacts: dict | None = None) -> dict:
    """Full report: EER plus FRR (and optional impact) at each FAR target.

    baseline_frrs / candidate_impacts map target-FAR keys (far_key)
    to the baseline FRR and candidate symmetric impact respectively.
    """
    if trialset.scores is None:
        raise DegenerateTrialSet("trial set is not scored")
    curve = roc(trialset.scores, trialset.target)
    per_far = []
    recoveries = {}
    for target in far_targets:
        frr, thr = frr_at_far(curve, target)
        idx = np.nonzero(curve.thresholds == thr)[0][0]
        entry = {
            "target_far": target,
            "threshold": thr,
            "far": float(curve.far[idx]),
            "frr": frr,
        }
        key = far_key(target)
        if baseline_frrs is not None and key in baseline_frrs:
            entry["relative_impact"] = relative_impact(baseline_frrs[key], frr)
            if candidate_impacts is not None and key in candidate_impacts:
                recoveries[key] = gap_recovery(entry["relative_impact"],
                                               candidate_impacts[key])
        per_far.append(entry)
    report = {
        "scorer_id": scorer_id,
        "n_target": curve.n_target,
        "n_imposter": curve.n_imposter,
        "eer": eer(curve),
        "per_far": per_far,
    }
    if recoveries:
        report["gap_recovery"] = recoveries
    return report


def report_json(report: dict) -> str:
    """The text of a report file: indented, key-sorted, strict JSON. The +inf
    operating point (a FAR target below every finite threshold's FAR) has the
    threshold null; any other non-finite number is DegenerateTrialSet."""
    per_far = [dict(e, threshold=e["threshold"] if math.isfinite(e["threshold"]) else None)
               for e in report["per_far"]]
    try:
        return json.dumps(dict(report, per_far=per_far), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise DegenerateTrialSet(f"the report holds a number that is not finite: "
                                 f"{exc}") from exc


def save_report(report: dict, path) -> None:
    _write_text(path, report_json(report))


def load_report(path) -> dict:
    return _load_json(path, "report")
