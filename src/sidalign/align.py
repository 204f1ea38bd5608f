"""Aligner training objectives and the training loop.

Three variants map embeddings between the two frozen models' spaces:
  * m1: map runtime embeddings from space Y into space X (MSE).
  * m2: map enrollment profiles from space X into space Y (MSE).
  * m3: map both sides into a new space with two networks, trained with a
    softmax-contrastive term over in-batch plus banked negative profiles and
    MSE anchors tying the new space to space Y.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, VoiceProfile
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DisjointnessViolation,
    InsufficientData,
    ParseError,
    VariantMismatch,
)
from .mlp import (
    AdamState,
    LrSchedule,
    Mlp,
    adam_step,
    backward,
    forward,
    lr_at,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
)
from .numerics import Prng, length_normalize

VARIANTS = ("m1", "m2", "m3")


@dataclass
class PairBatch:
    """Per-speaker views: profiles (e_x, e_y) and one runtime pair (r_x, r_y)."""

    speaker_ids: list[str]
    e_x: np.ndarray
    e_y: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray

    @property
    def size(self) -> int:
        return len(self.speaker_ids)


@dataclass
class NegativeBank:
    speaker_ids: list[str]
    e_x: np.ndarray
    e_y: np.ndarray

    @property
    def size(self) -> int:
        return len(self.speaker_ids)


@dataclass
class NessaConfig:
    variant: str = "m2"
    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 0.1
    w_init: float = 5.0
    epochs: int = 50
    steps_per_epoch: int = 2000
    batch_size: int = 1024
    bank_size: int = 0
    hidden: int = 800
    lr0: float = 1e-3
    lr_decay: float = 0.96
    seed: int = 0

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigInvalid(f"unknown variant {self.variant!r}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigInvalid("alpha, beta, gamma must be >= 0")
        if self.epochs < 0:
            raise ConfigInvalid("epochs must be >= 0")
        if min(self.steps_per_epoch, self.batch_size) < 1:
            raise ConfigInvalid("steps_per_epoch and batch_size must be >= 1")
        if self.bank_size < 0:
            raise ConfigInvalid("bank_size must be >= 0")


# ---------------------------------------------------------------------------
# Losses


def _mse_and_grad(pred: np.ndarray, target: np.ndarray):
    """Mean over batch and dimensions; returns (mse, d mse / d pred)."""
    if pred.shape != target.shape:
        raise DimensionMismatch(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    mse = float(np.mean(diff * diff))
    return mse, 2.0 * diff / diff.size


def loss_m1(f: Mlp, batch: PairBatch):
    """MSE of F(r_Y) against r_X."""
    y, cache = forward(f, batch.r_y)
    loss, dy = _mse_and_grad(y, batch.r_x)
    gw, gb, _ = backward(f, cache, dy)
    return loss, _interleave(gw, gb)


def loss_m2(f: Mlp, batch: PairBatch):
    """MSE of F(e_X) against e_Y."""
    y, cache = forward(f, batch.e_x)
    loss, dy = _mse_and_grad(y, batch.e_y)
    gw, gb, _ = backward(f, cache, dy)
    return loss, _interleave(gw, gb)


def _interleave(gw, gb):
    out = []
    for w, b in zip(gw, gb):
        out.append(w)
        out.append(b)
    return out


def _normalize_rows(a: np.ndarray):
    # Floor the norms: a freshly initialized narrow net can map a row to
    # (almost) zero, and a NaN here would poison the whole training step.
    norms = np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    return a / norms, norms


def loss_m3(f1: Mlp, f2: Mlp, w: float, batch: PairBatch,
            bank: NegativeBank | None, alpha: float, beta: float, gamma: float,
            want_grads: bool = True):
    """Full combined objective; returns (loss, grads_f1, grads_f2, dL_dw).

    The contrastive denominator for runtime item i runs over the mapped
    enrollment profiles of the whole batch plus the bank (the positive j = i
    is included). Softmax uses max-subtraction for stability. Bank profiles
    are mapped through the current f1 and receive gradients.
    """
    n = batch.size
    m_neg = bank.size if bank is not None else 0
    if n + m_neg < 2:
        raise InsufficientData("contrastive loss needs at least 2 candidates")
    if bank is not None and set(bank.speaker_ids) & set(batch.speaker_ids):
        raise DisjointnessViolation("bank speakers overlap the batch")

    if bank is not None and bank.size > 0:
        a_in = np.vstack([batch.e_x, bank.e_x])
    else:
        a_in = batch.e_x
    a_out, cache1 = forward(f1, a_in)
    b_out, cache2 = forward(f2, batch.r_y)

    a_hat, a_norm = _normalize_rows(a_out)
    b_hat, b_norm = _normalize_rows(b_out)
    cosines = a_hat @ b_hat.T  # (n+M, n); column i = candidates for item i
    scores = w * cosines
    shifted = scores - scores.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=0, keepdims=True)
    p = exp / denom
    log_p_pos = shifted[np.arange(n), np.arange(n)] - np.log(denom[0])
    term1 = -(alpha / n) * float(np.sum(log_p_pos))

    mse2, dmse2 = _mse_and_grad(a_out[:n], batch.e_y)
    mse3, dmse3 = _mse_and_grad(b_out, batch.r_y)
    loss = term1 + beta * mse2 + gamma * mse3

    if not want_grads:
        return loss, None, None, None

    # d term1 / d scores
    dscores = (alpha / n) * p
    dscores[np.arange(n), np.arange(n)] -= alpha / n
    dl_dw = float(np.sum(dscores * cosines))
    dcos = w * dscores

    da_hat = dcos @ b_hat
    db_hat = dcos.T @ a_hat
    da = (da_hat - a_hat * np.sum(a_hat * da_hat, axis=1, keepdims=True)) / a_norm
    db = (db_hat - b_hat * np.sum(b_hat * db_hat, axis=1, keepdims=True)) / b_norm

    da[:n] += beta * dmse2
    db += gamma * dmse3

    gw1, gb1, _ = backward(f1, cache1, da)
    gw2, gb2, _ = backward(f2, cache2, db)
    return loss, _interleave(gw1, gb1), _interleave(gw2, gb2), dl_dw


# ---------------------------------------------------------------------------
# Paired training data


class PairedData:
    """Aligned views of two corpora sharing speakers and utterance ids."""

    def __init__(self, corpus_x: Corpus, corpus_y: Corpus,
                 speaker_subset: list[str] | None = None):
        spk_x = corpus_x.speaker_ids()
        have_y = set(corpus_y.speaker_ids())
        speakers = [s for s in spk_x if s in have_y]
        if speaker_subset is not None:
            allowed = set(speaker_subset)
            speakers = [s for s in speakers if s in allowed]
        prof_x = {p.speaker_id: p.vector for p in corpus_x.profiles}
        prof_y = {p.speaker_id: p.vector for p in corpus_y.profiles}
        self.d = corpus_x.dim
        if corpus_y.dim != self.d:
            raise DimensionMismatch("the two corpora must share the embedding dim")

        # Keep only speakers with both profiles and >= 1 paired runtime utt.
        speaker_pos = {s: i for i, s in enumerate(speakers)
                       if s in prof_x and s in prof_y}
        r_x_rows, r_y_rows = [], []
        utt_index = [[] for _ in speakers]
        for rec in corpus_x.records:
            si = speaker_pos.get(rec.speaker_id)
            if si is None or rec.split != "runtime":
                continue
            try:
                pair = corpus_y.record(rec.utterance_id, "runtime")
            except KeyError:
                continue
            utt_index[si].append(len(r_x_rows))
            r_x_rows.append(rec.vector)
            r_y_rows.append(pair.vector)
        keep = [i for i, utts in enumerate(utt_index) if utts]
        if not keep:
            raise InsufficientData(
                "no shared speaker has a profile in both views and a paired "
                "runtime utterance")
        self.speaker_ids = [speakers[i] for i in keep]
        self.utt_index = [utt_index[i] for i in keep]
        self.e_x = np.stack([prof_x[s] for s in self.speaker_ids])
        self.e_y = np.stack([prof_y[s] for s in self.speaker_ids])
        self.r_x = np.stack(r_x_rows)
        self.r_y = np.stack(r_y_rows)

    @property
    def n_speakers(self) -> int:
        return len(self.speaker_ids)

    def sample_batch(self, size: int, prng: Prng) -> PairBatch:
        """Distinct speakers, one runtime utterance each."""
        size = min(size, self.n_speakers)
        spk_idx = prng.choice(self.n_speakers, size, replace=False)
        utt_idx = []
        for si in spk_idx:
            utts = self.utt_index[int(si)]
            utt_idx.append(utts[int(prng.integers(0, len(utts)))])
        utt_idx = np.array(utt_idx)
        return PairBatch(
            [self.speaker_ids[int(i)] for i in spk_idx],
            self.e_x[spk_idx],
            self.e_y[spk_idx],
            self.r_x[utt_idx],
            self.r_y[utt_idx],
        )

    def full_batch(self) -> PairBatch:
        """One deterministic batch: every speaker with its first runtime utt."""
        utt_idx = np.array([self.utt_index[i][0] for i in range(self.n_speakers)])
        spk_idx = np.arange(self.n_speakers)
        return PairBatch(
            list(self.speaker_ids),
            self.e_x[spk_idx],
            self.e_y[spk_idx],
            self.r_x[utt_idx],
            self.r_y[utt_idx],
        )


def sample_negative_bank(paired: PairedData, batch_speaker_ids, m: int,
                         prng: Prng) -> NegativeBank:
    """Uniform sample without replacement from speakers outside the batch."""
    if m == 0:
        return NegativeBank([], np.zeros((0, paired.d)), np.zeros((0, paired.d)))
    excluded = set(batch_speaker_ids)
    candidates = [i for i, s in enumerate(paired.speaker_ids) if s not in excluded]
    if m > len(candidates):
        raise InsufficientData(
            f"bank of {m} requested, only {len(candidates)} disjoint speakers"
        )
    picks = prng.choice(len(candidates), m, replace=False)
    idx = np.array([candidates[int(i)] for i in picks])
    return NegativeBank(
        [paired.speaker_ids[int(i)] for i in idx],
        paired.e_x[idx],
        paired.e_y[idx],
    )


# ---------------------------------------------------------------------------
# Training


@dataclass
class Checkpoint:
    variant: str
    f1: Mlp
    f2: Mlp | None
    w: float | None
    alpha: float
    beta: float
    gamma: float
    seed: int
    trained_epochs: int
    log: list[dict] = field(default_factory=list)


def train(config: NessaConfig, train_pair: PairedData,
          val_pair: PairedData | None) -> Checkpoint:
    """Minibatch Adam training; returns the best-validation checkpoint."""
    config.validate()
    prng = Prng(config.seed)
    d = train_pair.d
    dims = [d, config.hidden, config.hidden, d]
    schedule = LrSchedule(config.lr0, config.lr_decay)

    f1 = mlp_init(dims, config.seed)
    f2 = mlp_init(dims, config.seed + 1) if config.variant == "m3" else None
    w = np.array([config.w_init]) if config.variant == "m3" else None

    params = list(f1.parameters())
    if config.variant == "m3":
        params += list(f2.parameters())
        params.append(w)
    state = AdamState(params)

    # Fixed validation bank: sampled once from training speakers.
    val_bank = None
    if config.variant == "m3" and val_pair is not None:
        bank_prng = Prng(config.seed + 101)
        excluded = set(val_pair.speaker_ids)
        avail = sum(1 for s in train_pair.speaker_ids if s not in excluded)
        val_m = min(config.bank_size, avail)
        val_bank = sample_negative_bank(train_pair, val_pair.speaker_ids,
                                        val_m, bank_prng)

    def val_loss():
        if val_pair is None:
            return float("nan")
        batch = val_pair.full_batch()
        if config.variant == "m3":
            return loss_m3(f1, f2, float(w[0]), batch, val_bank, config.alpha,
                           config.beta, config.gamma, want_grads=False)[0]
        # The m1/m2 objectives without their backward pass.
        x, target = ((batch.r_y, batch.r_x) if config.variant == "m1"
                     else (batch.e_x, batch.e_y))
        return _mse_and_grad(forward(f1, x)[0], target)[0]

    best = Checkpoint(config.variant, f1.copy(),
                      f2.copy() if f2 is not None else None,
                      float(w[0]) if w is not None else None,
                      config.alpha, config.beta, config.gamma,
                      config.seed, 0)
    best_val = val_loss() if config.epochs > 0 else float("inf")
    log: list[dict] = []

    for epoch in range(config.epochs):
        lr = lr_at(schedule, epoch)
        t0 = time.monotonic()
        train_losses = []
        for _ in range(config.steps_per_epoch):
            batch = train_pair.sample_batch(config.batch_size, prng)
            if config.variant == "m1":
                loss, grads = loss_m1(f1, batch)
            elif config.variant == "m2":
                loss, grads = loss_m2(f1, batch)
            else:
                bank = sample_negative_bank(
                    train_pair, batch.speaker_ids,
                    min(config.bank_size,
                        train_pair.n_speakers - batch.size),
                    prng)
                loss, g1, g2, dw = loss_m3(
                    f1, f2, float(w[0]), batch, bank,
                    config.alpha, config.beta, config.gamma)
                grads = g1 + g2 + [np.array([dw])]
            adam_step(params, grads, state, lr)
            train_losses.append(loss)
        vloss = val_loss()
        entry = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(train_losses)),
            "val_loss": vloss,
            "wall_ms": int(1000 * (time.monotonic() - t0)),
        }
        if config.variant == "m3":
            entry["w"] = float(w[0])
        log.append(entry)
        if val_pair is None or vloss <= best_val or np.isnan(best_val):
            best_val = vloss
            best = Checkpoint(config.variant, f1.copy(),
                              f2.copy() if f2 is not None else None,
                              float(w[0]) if w is not None else None,
                              config.alpha, config.beta, config.gamma,
                              config.seed, epoch + 1)
    best.log = log
    return best


# ---------------------------------------------------------------------------
# Applying a trained aligner


# Which network of a checkpoint maps which side: (enrollment, runtime).
SIDE_NETWORKS = {"m1": (None, "f1"), "m2": ("f1", None), "m3": ("f1", "f2")}


def _side_network(ckpt: Checkpoint, side: int, what: str) -> Mlp:
    name = SIDE_NETWORKS[ckpt.variant][side]
    if name is None:
        raise VariantMismatch(f"variant {ckpt.variant!r} does not map {what}")
    return getattr(ckpt, name)


def map_profiles(ckpt: Checkpoint, vectors: np.ndarray) -> np.ndarray:
    """Map enrollment-side vectors (m2: F, m3: F1). Not defined for m1."""
    return forward(_side_network(ckpt, 0, "profiles"), vectors)[0]


def map_runtime(ckpt: Checkpoint, vectors: np.ndarray) -> np.ndarray:
    """Map runtime-side vectors (m1: F, m3: F2). Not defined for m2."""
    return forward(_side_network(ckpt, 1, "runtime embeddings"), vectors)[0]


def side_maps(ckpt: Checkpoint):
    """(enrollment map, runtime map) for metrics.score_cosine; None for the
    side the variant leaves in its own space."""
    enroll, runtime = SIDE_NETWORKS[ckpt.variant]
    return ((lambda v: map_profiles(ckpt, v)) if enroll else None,
            (lambda v: map_runtime(ckpt, v)) if runtime else None)


def transform_profiles_offline(ckpt: Checkpoint, profiles) -> list[VoiceProfile]:
    """Batch-map enrollment profiles into the target space (m2 offline mode)."""
    profiles = list(profiles)
    if not profiles:
        return []
    mapped = length_normalize(map_profiles(ckpt, np.stack([p.vector for p in profiles])))
    return [VoiceProfile(p.speaker_id, "X→Y", v) for p, v in zip(profiles, mapped)]


# ---------------------------------------------------------------------------
# Checkpoint IO


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    obj = {
        "variant": ckpt.variant,
        "alpha": ckpt.alpha,
        "beta": ckpt.beta,
        "gamma": ckpt.gamma,
        "w": ckpt.w,
    }
    if ckpt.variant == "m3":
        obj["f1"] = mlp_to_dict(ckpt.f1, ckpt.seed, ckpt.trained_epochs)
        obj["f2"] = mlp_to_dict(ckpt.f2, ckpt.seed, ckpt.trained_epochs)
    else:
        obj.update(mlp_to_dict(ckpt.f1, ckpt.seed, ckpt.trained_epochs))
    return obj


def checkpoint_from_dict(obj: dict) -> Checkpoint:
    variant = obj["variant"]
    if variant == "m3":
        f1 = mlp_from_dict(obj["f1"])
        f2 = mlp_from_dict(obj["f2"])
        epochs = int(obj["f1"].get("trained_epochs", 0))
        seed = int(obj["f1"].get("seed", 0))
    else:
        f1 = mlp_from_dict(obj)
        f2 = None
        epochs = int(obj.get("trained_epochs", 0))
        seed = int(obj.get("seed", 0))
    return Checkpoint(variant, f1, f2,
                      obj.get("w"), obj.get("alpha", 1.0), obj.get("beta", 0.5),
                      obj.get("gamma", 0.1), seed, epochs)


def save_checkpoint(ckpt: Checkpoint, path, extra: dict | None = None) -> None:
    obj = dict(extra or {})
    obj.update(checkpoint_to_dict(ckpt))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return checkpoint_from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ParseError(f"{path}: malformed checkpoint: {exc!r}") from exc


def save_training_log(log, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in log:
            fh.write(json.dumps(entry) + "\n")
