"""Aligner training objectives and the training loop.

Three variants map embeddings between the two frozen models' spaces:
  * m1: map runtime embeddings from space Y into space X (MSE).
  * m2: map enrollment profiles from space X into space Y (MSE).
  * m3: map both sides into a new space with two networks, trained with a
    softmax-contrastive term over in-batch plus banked negative profiles and
    MSE anchors tying the new space to space Y.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import (
    FLOAT_FMT,
    Corpus,
    _json_with,
    _load_json,
    _take,
    _write_text,
    group_rows,
    row_blocks,
    rows_of,
)
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DisjointnessViolation,
    InsufficientData,
    ParseError,
    TrainingDiverged,
    VariantMismatch,
)
from .mlp import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
)
from .numerics import Prng, finite_number, whole_number

# Each variant, with the names of the networks of its checkpoint that map
# its (enrollment, runtime) sides; None leaves a side in its own space.
VARIANTS = {"m1": (None, "f1"), "m2": ("f1", None), "m3": ("f1", "f2")}

# Training runs in float32, and so do the maps of the networks it returns.
TRAIN_DTYPE = np.float32


@dataclass
class PairBatch:
    """Per-speaker views: profiles (e_x, e_y) and one runtime pair (r_x, r_y).

    ``speakers`` numbers the speakers, as rows of the PairedData the batch
    was drawn from; a bank contrasted with the batch numbers its speakers in
    the same space.
    """

    speakers: np.ndarray
    e_x: np.ndarray
    e_y: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray

    @property
    def size(self) -> int:
        return len(self.speakers)


@dataclass
class NegativeBank:
    """Negative speakers and their X profiles, which loss_m3 maps through F1."""

    speakers: np.ndarray
    e_x: np.ndarray

    @property
    def size(self) -> int:
        return len(self.speakers)


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
        Prng(self.seed)  # refuses a negative seed
        for name in ("alpha", "beta", "gamma", "w_init", "lr0", "lr_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name} = {getattr(self, name)!r} is not finite")
        if abs(self.w_init) > float(np.finfo(TRAIN_DTYPE).max):
            raise ConfigInvalid(f"w_init = {self.w_init!r} is outside the range of "
                                f"{np.dtype(TRAIN_DTYPE).name} training")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigInvalid("alpha, beta, gamma must be >= 0")
        if self.epochs < 0:
            raise ConfigInvalid("epochs must be >= 0")
        if min(self.steps_per_epoch, self.batch_size) < 1:
            raise ConfigInvalid("steps_per_epoch and batch_size must be >= 1")
        if self.bank_size < 0:
            raise ConfigInvalid("bank_size must be >= 0")
        if self.hidden < 1:
            raise ConfigInvalid(f"hidden = {self.hidden!r} must be >= 1")
        if self.lr0 <= 0 or not 0 < self.lr_decay <= 1:
            raise ConfigInvalid(f"lr0 = {self.lr0!r} must be > 0 and lr_decay = "
                                f"{self.lr_decay!r} in (0, 1]")


# ---------------------------------------------------------------------------
# Losses


def _mse_and_grad(pred: np.ndarray, target: np.ndarray):
    """Mean over batch and dimensions; returns (mse, d mse / d pred)."""
    if pred.shape != target.shape:
        raise DimensionMismatch(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    mse = float(np.mean(diff * diff))
    return mse, 2.0 * diff / diff.size


def _fit(f: Mlp, x: np.ndarray, target: np.ndarray, want_grads: bool):
    """MSE of F(x) against target; returns (loss, gradients in F's parameter
    order, or None unless want_grads)."""
    y, cache = forward(f, x)
    loss, dy = _mse_and_grad(y, target)
    return loss, backward(f, cache, dy) if want_grads else None


def loss_m1(f: Mlp, batch: PairBatch, want_grads: bool = True):
    """MSE of F(r_Y) against r_X."""
    return _fit(f, batch.r_y, batch.r_x, want_grads)


def loss_m2(f: Mlp, batch: PairBatch, want_grads: bool = True):
    """MSE of F(e_X) against e_Y."""
    return _fit(f, batch.e_x, batch.e_y, want_grads)


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

    At alpha = 0 the contrastive term and its gradients are exactly zero, so
    the bank is drawn and checked but not mapped: only the batch rows go
    through f1, the cosine/softmax block is skipped and dL/dw is 0.0. The
    result has the bits of mapping the bank too wherever BLAS maps the batch
    rows alike with and without it (batch 256 with bank 512, for one), and
    agrees with it to rounding elsewhere.
    """
    n = batch.size
    m_neg = bank.size if bank is not None else 0
    if n + m_neg < 2:
        raise InsufficientData("contrastive loss needs at least 2 candidates")
    if m_neg and np.isin(bank.speakers, batch.speakers).any():
        raise DisjointnessViolation("bank speakers overlap the batch")

    contrastive = alpha != 0
    a_in = np.vstack([batch.e_x, bank.e_x]) if contrastive and m_neg else batch.e_x
    a_out, cache1 = forward(f1, a_in)
    b_out, cache2 = forward(f2, batch.r_y)

    term1 = 0.0
    if contrastive:
        a_hat, a_norm = _normalize_rows(a_out)
        b_hat, b_norm = _normalize_rows(b_out)
        cosines = a_hat @ b_hat.T  # (n+M, n); column i = candidates for item i
        # The softmax, then its gradient, work in place in one (n+M, n)
        # block: the same operations in the same order as with a new array
        # per step, so no bit changes.
        p = w * cosines
        p -= p.max(axis=0, keepdims=True)  # shifted scores
        shifted_pos = p[np.arange(n), np.arange(n)]
        np.exp(p, out=p)
        denom = p.sum(axis=0, keepdims=True)
        p /= denom
        log_p_pos = shifted_pos - np.log(denom[0])
        term1 = -(alpha / n) * float(np.sum(log_p_pos))

    mse2, dmse2 = _mse_and_grad(a_out[:n], batch.e_y)
    mse3, dmse3 = _mse_and_grad(b_out, batch.r_y)
    loss = term1 + beta * mse2 + gamma * mse3

    if not want_grads:
        return loss, None, None, None

    if not contrastive:
        da, db, dl_dw = beta * dmse2, gamma * dmse3, 0.0
    else:
        # d term1 / d scores, in p's block
        dscores = p
        dscores *= alpha / n
        dscores[np.arange(n), np.arange(n)] -= alpha / n
        # cosines is not read again
        dl_dw = float(np.sum(np.multiply(cosines, dscores, out=cosines)))
        dcos = dscores
        dcos *= w

        da_hat = dcos @ b_hat
        db_hat = dcos.T @ a_hat
        da = (da_hat - a_hat * np.sum(a_hat * da_hat, axis=1, keepdims=True)) / a_norm
        db = (db_hat - b_hat * np.sum(b_hat * db_hat, axis=1, keepdims=True)) / b_norm

        da[:n] += beta * dmse2
        db += gamma * dmse3

    return loss, backward(f1, cache1, da), backward(f2, cache2, db), dl_dw


# ---------------------------------------------------------------------------
# Paired training data


class PairedData:
    """Aligned views of two corpora sharing speakers and utterance ids."""

    def __init__(self, corpus_x: Corpus, corpus_y: Corpus,
                 speaker_subset: list[str] | None = None):
        prof_x, prof_y = corpus_x.profiles, corpus_y.profiles
        self.d = corpus_x.dim
        if corpus_y.dim != self.d:
            raise DimensionMismatch("the two corpora must share the embedding dim")

        # Keep only speakers with both profiles and >= 1 paired runtime utt,
        # in X's order: join the runtime rows of X to those of Y by utterance id.
        have = set(prof_x.speakers).intersection(prof_y.speakers)
        if speaker_subset is not None:
            have &= set(speaker_subset)
        speakers = [s for s in corpus_x.speaker_ids() if s in have]
        rows_x, rows_y = (np.flatnonzero(~corpus.enroll) for corpus in (corpus_x, corpus_y))
        owner = rows_of(_take(corpus_x.speakers, rows_x), speakers)
        partner = rows_of(_take(corpus_x.utterances, rows_x),
                          _take(corpus_y.utterances, rows_y))
        paired = (owner >= 0) & (partner >= 0)
        if not paired.any():
            raise InsufficientData(
                "no shared speaker has a profile in both views and a paired "
                "runtime utterance")
        # Runtime pairs grouped by speaker, in row order: speaker s owns
        # rows utt_start[s]:utt_start[s] + utt_count[s] of r_x and r_y.
        pairs = np.flatnonzero(paired)
        order, counts, starts = group_rows(owner[pairs])
        pairs, keep = pairs[order], np.flatnonzero(counts)
        self.utt_count, self.utt_start = counts[keep], starts[keep]
        self.speaker_ids = [speakers[i] for i in keep.tolist()]
        self.e_x = prof_x.vectors[rows_of(self.speaker_ids, prof_x.speakers)]
        self.e_y = prof_y.vectors[rows_of(self.speaker_ids, prof_y.speakers)]
        self.r_x = corpus_x.vectors[rows_x[pairs]]
        self.r_y = corpus_y.vectors[rows_y[partner[pairs]]]

    @property
    def n_speakers(self) -> int:
        return len(self.speaker_ids)

    def astype(self, dtype) -> "PairedData":
        """A copy whose profile and runtime matrices are cast to dtype by _cast
        (shared where they are of it), as training casts them."""
        out = copy.copy(self)
        for name, view in (("e_x", "X profiles"), ("e_y", "Y profiles"),
                           ("r_x", "X runtime vectors"), ("r_y", "Y runtime vectors")):
            setattr(out, name, _cast(getattr(self, name), dtype, view, "training"))
        return out

    def sample_batch(self, size: int, prng: Prng) -> PairBatch:
        """Distinct speakers, one runtime utterance each."""
        size = min(size, self.n_speakers)
        spk_idx = prng.choice(self.n_speakers, size)
        # One draw per speaker from one call: the same draws, in the same
        # order, as one scalar integers() call per speaker.
        utt_idx = self.utt_start[spk_idx] + prng.integers(0, self.utt_count[spk_idx])
        return self._batch(spk_idx, utt_idx)

    def full_batch(self) -> PairBatch:
        """One deterministic batch: every speaker with its first runtime utt."""
        return self._batch(np.arange(self.n_speakers), self.utt_start)

    def _batch(self, spk_idx: np.ndarray, utt_idx: np.ndarray) -> PairBatch:
        """The profiles of speaker rows spk_idx and the runtime pairs of rows
        utt_idx."""
        return PairBatch(spk_idx, self.e_x[spk_idx], self.e_y[spk_idx],
                         self.r_x[utt_idx], self.r_y[utt_idx])


def split_train_val(corpus_x: Corpus, corpus_y: Corpus, val_fraction: float,
                    seed: int) -> tuple[PairedData, PairedData | None]:
    """(training, validation) PairedData over the speakers of corpus_x that
    corpus_y also holds, in X order: Prng(seed + 7) permutes them and the
    first round(val_fraction * n) go to validation (None if that is none)."""
    if not 0 <= val_fraction < 1:
        raise ConfigInvalid(f"val-fraction {val_fraction} is not in [0, 1)")
    have_y = set(corpus_y.speaker_ids())
    speakers = [s for s in corpus_x.speaker_ids() if s in have_y]
    n_val = round(val_fraction * len(speakers))
    if speakers and n_val == len(speakers):
        raise ConfigInvalid(f"a val-fraction of {val_fraction} leaves no training "
                            f"speaker: all {n_val} shared speakers go to validation")
    order = [speakers[int(i)] for i in Prng(seed + 7).permutation(len(speakers))]
    train_pair = PairedData(corpus_x, corpus_y, order[n_val:])
    return train_pair, PairedData(corpus_x, corpus_y, order[:n_val]) if n_val else None


def sample_negative_bank(paired: PairedData, excluded, m: int,
                         prng: Prng) -> NegativeBank:
    """Uniform sample without replacement from the speakers of ``paired``
    outside ``excluded`` (speaker rows, e.g. a batch's ``speakers``)."""
    if m == 0:
        return NegativeBank(np.zeros(0, dtype=np.intp), np.zeros((0, paired.d)))
    outside = np.ones(paired.n_speakers, dtype=bool)
    outside[excluded] = False
    candidates = np.flatnonzero(outside)
    if m > candidates.size:
        raise InsufficientData(
            f"bank of {m} requested, only {candidates.size} disjoint speakers"
        )
    idx = candidates[prng.choice(candidates.size, m)]
    return NegativeBank(idx, paired.e_x[idx])


# ---------------------------------------------------------------------------
# Training


@dataclass
class Checkpoint:
    """A trained aligner. Its networks map in the dtype of their arrays:
    float32 as training and float32 files give them, float64 as a float64
    file (or a hand-built float64 network) does."""

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

    @property
    def dtype(self) -> str:
        """"float32" when all of its networks' arrays are (save_checkpoint then
        writes them at 9 significant digits), else "float64"."""
        nets = [f for f in (self.f1, self.f2) if f is not None]
        float32 = all(p.dtype == np.float32 for f in nets for p in f.parameters())
        return "float32" if float32 else "float64"


def train(config: NessaConfig, train_pair: PairedData,
          val_pair: PairedData | None) -> Checkpoint:
    """Minibatch Adam training; returns the best-validation checkpoint.

    The networks, w, Adam's state and both splits' matrices are float32
    (TRAIN_DTYPE), and so are the checkpoint's copies of the networks, which
    map in float32; w is the float of a float32. A paired value beyond
    float32's range raises ParseError before the first step. A non-finite
    training or validation loss, or a non-finite parameter in a checkpoint,
    raises TrainingDiverged: numpy's overflow warnings are off while training,
    since the loss or the parameters carry any overflow.
    """
    config.validate()
    with np.errstate(over="ignore", invalid="ignore"):
        return _train(config, train_pair.astype(TRAIN_DTYPE),
                      val_pair.astype(TRAIN_DTYPE) if val_pair is not None else None)


def _cast(values: np.ndarray, dtype, view: str, use: str) -> np.ndarray:
    """values as dtype (values itself if of it); ParseError naming the view, as
    Corpus gives for a non-finite vector, if the cast holds an inf: a value
    beyond dtype's range."""
    with np.errstate(over="ignore"):
        cast = values.astype(dtype, copy=False)
    if cast is not values and np.isinf(cast).any():
        raise ParseError(f"{view} hold a value beyond ±{float(np.finfo(dtype).max):.4g}, "
                         f"the range of {np.dtype(dtype).name} {use}")
    return cast


def _finite_loss(loss, what: str, when: str):
    """loss (a float or None), unless it is not finite."""
    if loss is not None and not math.isfinite(loss):
        raise TrainingDiverged(f"training diverged: {what} loss is {loss} {when}")
    return loss


def _train(config: NessaConfig, train_pair: PairedData,
           val_pair: PairedData | None) -> Checkpoint:
    prng = Prng(config.seed)
    dims = [train_pair.d, config.hidden, config.hidden, train_pair.d]
    m3 = config.variant == "m3"
    n_nets = sum(name is not None for name in VARIANTS[config.variant])
    nets = [mlp_init(dims, config.seed + k).astype(TRAIN_DTYPE) for k in range(n_nets)]
    w = np.array([config.w_init], dtype=TRAIN_DTYPE) if m3 else None
    params = [p for f in nets for p in f.parameters()] + ([w] if m3 else [])
    state = AdamState(params)

    def objective(batch: PairBatch, bank: NegativeBank | None, want_grads: bool):
        """The variant's loss on batch and its gradients in params order (None
        unless want_grads)."""
        if not m3:
            return (loss_m1 if config.variant == "m1" else loss_m2)(*nets, batch, want_grads)
        loss, g1, g2, dw = loss_m3(*nets, float(w[0]), batch, bank, config.alpha,
                                   config.beta, config.gamma, want_grads)
        return loss, (g1 + g2 + [np.array([dw], dtype=w.dtype)] if want_grads else None)

    # Fixed validation bank: sampled once from the training speakers that
    # are not validation speakers. Its speakers are numbered after the
    # validation batch's (0..n-1), the space loss_m3 checks them in.
    val_bank = None
    if m3 and val_pair is not None:
        val_ids = set(val_pair.speaker_ids)
        in_val = [i for i, s in enumerate(train_pair.speaker_ids) if s in val_ids]
        val_m = min(config.bank_size, train_pair.n_speakers - len(in_val))
        bank = sample_negative_bank(train_pair, in_val, val_m, Prng(config.seed + 101))
        val_bank = NegativeBank(val_pair.n_speakers + np.arange(bank.size), bank.e_x)

    def val_loss():  # None without a validation split: JSON has no NaN
        return val_pair and objective(val_pair.full_batch(), val_bank, False)[0]

    def snapshot(epochs: int) -> Checkpoint:
        """A checkpoint of float32 copies of the networks."""
        if not all(np.isfinite(p).all() for p in params):
            raise TrainingDiverged(
                f"training diverged: a parameter is not finite after {epochs} epochs")
        f1, f2 = ([f.astype(TRAIN_DTYPE) for f in nets] + [None])[:2]
        return Checkpoint(config.variant, f1, f2, float(w[0]) if m3 else None,
                          config.alpha, config.beta, config.gamma, config.seed, epochs)

    best = snapshot(0)
    best_val = (_finite_loss(val_loss(), "the validation", "before training")
                if config.epochs > 0 else float("inf"))
    log: list[dict] = []

    for epoch in range(config.epochs):
        lr = config.lr0 * config.lr_decay**epoch
        t0 = time.monotonic()
        train_losses = []
        for _ in range(config.steps_per_epoch):
            batch = train_pair.sample_batch(config.batch_size, prng)
            m = min(config.bank_size, train_pair.n_speakers - batch.size)
            bank = sample_negative_bank(train_pair, batch.speakers, m, prng) if m3 else None
            loss, grads = objective(batch, bank, True)
            adam_step(params, grads, state, lr)
            train_losses.append(_finite_loss(loss, "a step's", f"in epoch {epoch}"))
        vloss = _finite_loss(val_loss(), "the validation", f"after epoch {epoch}")
        entry = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(train_losses)),
            "val_loss": vloss,
            "wall_ms": int(1000 * (time.monotonic() - t0)),
        }
        if m3:
            entry["w"] = float(w[0])
        log.append(entry)
        if val_pair is None or vloss <= best_val:
            best_val = vloss
            best = snapshot(epoch + 1)
    best.log = log
    return best


# ---------------------------------------------------------------------------
# Applying a trained aligner


def _map_side(ckpt: Checkpoint, side: int, what: str, vectors) -> np.ndarray:
    """forward(net, vectors)[0] of one side's network, one data.row_blocks block
    at a time; a value beyond its dtype's range is _cast's ParseError."""
    name = VARIANTS[ckpt.variant][side]
    if name is None:
        raise VariantMismatch(f"variant {ckpt.variant!r} does not map {what}")
    net = getattr(ckpt, name)
    x = np.asarray(vectors)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        forward(net, x)  # raises DimensionMismatch, naming the shape
    view = ("X profiles", "Y runtime vectors")[side]
    out = np.empty((len(x), net.layer_dims[-1]), np.result_type(*net.weights))
    for block in row_blocks(len(x)):
        out[block] = forward(net, _cast(x[block], net.weights[0].dtype, view, "mapping"))[0]
    return out


def map_profiles(ckpt: Checkpoint, vectors: np.ndarray) -> np.ndarray:
    """Map enrollment-side vectors (m2: F, m3: F1). Not defined for m1."""
    return _map_side(ckpt, 0, "profiles", vectors)


def map_runtime(ckpt: Checkpoint, vectors: np.ndarray) -> np.ndarray:
    """Map runtime-side vectors (m1: F, m3: F2). Not defined for m2."""
    return _map_side(ckpt, 1, "runtime embeddings", vectors)


def side_maps(ckpt: Checkpoint):
    """(enrollment map, runtime map) for metrics.score_trials; None for the
    side the variant leaves in its own space."""
    enroll, runtime = VARIANTS[ckpt.variant]
    return ((lambda v: map_profiles(ckpt, v)) if enroll else None,
            (lambda v: map_runtime(ckpt, v)) if runtime else None)


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
    net = {"seed": ckpt.seed, "trained_epochs": ckpt.trained_epochs}
    if ckpt.variant == "m3":
        obj["f1"] = mlp_to_dict(ckpt.f1, **net)
        obj["f2"] = mlp_to_dict(ckpt.f2, **net)
    else:
        obj.update(mlp_to_dict(ckpt.f1, **net))
    return obj


def checkpoint_from_dict(obj: dict) -> Checkpoint:
    if obj["variant"] not in VARIANTS:
        raise ParseError(f"malformed checkpoint: unknown variant {obj['variant']!r}")
    m3 = obj["variant"] == "m3"
    f1 = obj["f1"] if m3 else obj  # the seed and epochs are read from F1's dict
    old = NessaConfig()  # the settings an old file lacks take their defaults
    counts = [f1.get("seed", old.seed), f1.get("trained_epochs", 0)]
    if not all(map(whole_number, counts)) or min(counts) < 0:
        raise ValueError(f"seed {counts[0]!r} and trained_epochs {counts[1]!r} must be "
                         f"whole numbers >= 0")
    settings = [obj.get(k, getattr(old, k)) for k in ("alpha", "beta", "gamma")]
    w = obj.get("w")  # m3's w, if written; m1 and m2 have none
    if not all(map(finite_number, settings)) or not (
            finite_number(w) if m3 and "w" in obj else w is None):
        raise ValueError(f"alpha, beta, gamma {settings!r} must be finite numbers and w "
                         f"{w!r} {'one too' if m3 else 'null'}")
    dicts = [f1, obj["f2"]] if m3 else [f1]
    nets = [mlp_from_dict(net) for net in dicts]
    if not all(net.get("dtype") == "float32" for net in dicts):  # maps in float64
        nets = [net.astype(np.float64) for net in nets]
    return Checkpoint(obj["variant"], nets[0], nets[1] if m3 else None, w, *settings,
                      *map(int, counts))


def save_checkpoint(ckpt: Checkpoint, path, extra: dict | None = None) -> None:
    """ckpt as one line of JSON, after the keys of extra. The networks of a
    float32 checkpoint have their layers written last, each value as
    FLOAT_FMT text: 9 significant digits, which read back through float32 to
    the same bits. Any other checkpoint is json.dumps of checkpoint_to_dict."""
    obj = dict(extra or {})
    obj.update(checkpoint_to_dict(ckpt))
    if ckpt.dtype != "float32":
        text = json.dumps(obj)
    elif ckpt.variant == "m3":
        nets = {net: _float32_json(obj.pop(net)) for net in ("f1", "f2")}
        text = _json_with(obj, nets)
    else:
        text = _float32_json(obj)
    _write_text(path, text + "\n")


def _float32_json(net: dict) -> str:
    """A network's dict (mlp_to_dict's, or a checkpoint's holding its keys) as
    JSON text, with its layers last and their values as FLOAT_FMT text."""
    layers = {key: "[" + ", ".join("[" + ",".join([FLOAT_FMT] * len(values)) % tuple(values)
                                   + "]" for values in net.pop(key)) + "]"
              for key in ("weights", "biases")}
    return _json_with(net, layers)


def load_checkpoint(path) -> Checkpoint:
    return _load_json(path, "checkpoint", checkpoint_from_dict, parse_int=_json_int)


def _json_int(text: str):
    """A JSON integer, exact as an int (a seed may exceed 2**53), but "-0",
    which FLOAT_FMT writes for -0.0, reads as -0.0, not as the int 0."""
    return -0.0 if text == "-0" else int(text)


def save_training_log(log, path) -> None:
    _write_text(path, "".join(json.dumps(entry) + "\n" for entry in log))
