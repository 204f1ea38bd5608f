"""Verification metrics: ROC sweep, FRR at fixed FAR, EER, relative impact.

Accept rule is ``score >= threshold``; ties count as accepts for both error
types. The ROC is the exact empirical curve over the unique scores plus a
+inf threshold, so the (FAR=1, FRR=0) and (FAR=0, FRR=1) endpoints are always
present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import TrialSet, format_float
from .errors import (
    BaselineZero,
    DegenerateGap,
    DegenerateTrialSet,
    ParseError,
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
    """Exact empirical FAR/FRR sweep; labels are 1 = target, 0 = imposter."""
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
                 runtime_vectors: dict) -> TrialSet:
    """Score every trial with a batch scorer (P, R) -> scores.

    profile_vectors maps enroll_speaker_id to a vector, runtime_vectors maps
    test_utterance_id to a vector. Score order matches trial order.
    """
    trials = trialset.trials
    if not trials:
        return TrialSet([], [])
    # One row per key, gathered by index arrays: np.intp arrays, not lists of
    # Python ints, so a long trial list costs two allocations, not n objects.
    p_row = {k: i for i, k in enumerate(profile_vectors)}
    r_row = {k: i for i, k in enumerate(runtime_vectors)}
    n = len(trials)
    try:
        pi = np.fromiter((p_row[t.enroll_speaker_id] for t in trials), np.intp, n)
        ri = np.fromiter((r_row[t.test_utterance_id] for t in trials), np.intp, n)
    except KeyError:
        for t in trials:  # name the first unknown id in trial order
            if t.enroll_speaker_id not in p_row:
                raise UnknownId(
                    f"unknown enroll speaker {t.enroll_speaker_id!r}") from None
            if t.test_utterance_id not in r_row:
                raise UnknownId(
                    f"unknown test utterance {t.test_utterance_id!r}") from None
        raise
    p = np.stack(list(profile_vectors.values()))
    r = np.stack(list(runtime_vectors.values()))
    scores = scorer(p[pi], r[ri])
    return TrialSet(list(trials), scores.tolist())


def cosine_scorer(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise cosine of parallel rows; a row of norm <= EPS_NORM (or NaN)
    raises ZeroVector instead of scoring NaN."""
    p_norm = np.linalg.norm(p, axis=1)
    r_norm = np.linalg.norm(r, axis=1)
    if not (np.all(p_norm > EPS_NORM) and np.all(r_norm > EPS_NORM)):
        raise ZeroVector("cosine of a zero-norm or non-finite row")
    return np.sum(p * r, axis=1) / (p_norm * r_norm)


def score_cosine(trialset: TrialSet, profile_vectors: dict, runtime_vectors: dict,
                 enroll_map=None, runtime_map=None) -> TrialSet:
    """The one scoring rule: cosine(enroll_map(profile), runtime_map(runtime)).

    A map takes an (n, d) block of one side's vectors and runs once over the
    stacked unique vectors of that side (the offline-profile property of
    m2/m3); None leaves that side as it is.
    """
    sides = []
    for vectors, fn in ((profile_vectors, enroll_map), (runtime_vectors, runtime_map)):
        if fn is not None and vectors:
            keys = list(vectors)
            vectors = dict(zip(keys, fn(np.stack([vectors[k] for k in keys]))))
        sides.append(vectors)
    return score_trials(trialset, cosine_scorer, *sides)


def evaluate(trialset: TrialSet, scorer_id: str,
             far_targets=DEFAULT_FAR_TARGETS,
             baseline_frrs: dict | None = None,
             candidate_impacts: dict | None = None) -> dict:
    """Full report: EER plus FRR (and optional impact) at each FAR target.

    baseline_frrs / candidate_impacts map target-FAR keys (as formatted by
    far_key) to the baseline FRR and candidate symmetric impact respectively.
    """
    if trialset.scores is None:
        raise DegenerateTrialSet("trial set is not scored")
    curve = roc(trialset.scores, trialset.labels01())
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


def far_key(target_far: float) -> str:
    return format_float(target_far)


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
