"""Synthetic two-view corpus generator.

A shared latent speaker space is observed through two distortion "models"
X and Y. Each (speaker, utterance) pair has one underlying identity draw;
each view adds its own within-speaker noise before its distortion map, so
the two corpora are utterance-paired while the per-view noise levels encode
the quality gap between the models.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import Corpus, EmbeddingRecord, Trial, TrialSet
from .errors import ConfigInvalid, InsufficientData
from .numerics import Prng, length_normalize, random_orthogonal

DISTORTIONS = ("identity", "orthogonal", "affine", "mlp_nonlinear")


@dataclass
class SynthConfig:
    n_speakers: int = 200
    n_enroll_utts: int = 5
    n_runtime_utts: int = 3
    latent_dim: int = 16
    embed_dim: int = 16
    within_noise_x: float = 0.3
    within_noise_y: float = 0.15
    distortion_x: str = "orthogonal"
    distortion_y: str = "orthogonal"
    nonlinear_gain: float = 1.5
    seed: int = 0
    # Seed for the distortion map draws; corpora generated with different
    # speaker seeds but the same model_seed share the two "models".
    model_seed: int | None = None

    def validate(self):
        if min(self.n_speakers, self.n_enroll_utts, self.n_runtime_utts) < 1:
            raise ConfigInvalid("speaker and utterance counts must be >= 1")
        if min(self.latent_dim, self.embed_dim) < 1:
            raise ConfigInvalid("dimensions must be >= 1")
        if self.within_noise_x < 0 or self.within_noise_y < 0:
            raise ConfigInvalid("noise std-devs must be >= 0")
        if self.within_noise_y > self.within_noise_x:
            raise ConfigInvalid("within_noise_y must be <= within_noise_x")
        for name in (self.distortion_x, self.distortion_y):
            if name not in DISTORTIONS:
                raise ConfigInvalid(f"unknown distortion {name!r}")
        if "identity" in (self.distortion_x, self.distortion_y):
            if self.latent_dim != self.embed_dim:
                raise ConfigInvalid("identity distortion needs latent_dim == embed_dim")
        if self.embed_dim < self.latent_dim:
            raise ConfigInvalid("embed_dim must be >= latent_dim")


class Distortion:
    """Fixed map from latent space to one model's embedding space."""

    def __init__(self, kind: str, latent_dim: int, embed_dim: int, prng: Prng,
                 gain: float = 1.5):
        self.kind = kind
        if kind == "identity":
            self.params = {}
        elif kind == "orthogonal":
            self.params = {"q": random_orthogonal(embed_dim, latent_dim, prng)}
        elif kind == "affine":
            a = prng.standard_normal(embed_dim, latent_dim) / np.sqrt(latent_dim)
            b = 0.1 * prng.standard_normal(embed_dim)
            self.params = {"a": a, "b": b}
        elif kind == "mlp_nonlinear":
            hidden = 2 * max(latent_dim, embed_dim)
            w1 = gain * prng.standard_normal(hidden, latent_dim) / np.sqrt(latent_dim)
            w2 = prng.standard_normal(embed_dim, hidden) / np.sqrt(hidden)
            self.params = {"w1": w1, "w2": w2}
        else:
            raise ConfigInvalid(f"unknown distortion {kind!r}")

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Map latent rows (n, latent_dim) to unit embedding rows (n, embed_dim)."""
        if self.kind == "identity":
            out = u
        elif self.kind == "orthogonal":
            out = u @ self.params["q"].T
        elif self.kind == "affine":
            out = u @ self.params["a"].T + self.params["b"]
        else:
            out = np.tanh(u @ self.params["w1"].T) @ self.params["w2"].T
        return length_normalize(out)


@dataclass
class GroundTruth:
    latents: dict[str, np.ndarray]
    distortion_x: Distortion
    distortion_y: Distortion


def generate(config: SynthConfig) -> tuple[Corpus, Corpus, GroundTruth]:
    """Generate the paired corpora for views X and Y plus the ground truth."""
    config.validate()
    prng = Prng(config.seed)
    model_seed = config.model_seed if config.model_seed is not None else config.seed
    model_prng = Prng(model_seed)
    dist_x = Distortion(config.distortion_x, config.latent_dim, config.embed_dim,
                        model_prng, config.nonlinear_gain)
    dist_y = Distortion(config.distortion_y, config.latent_dim, config.embed_dim,
                        model_prng, config.nonlinear_gain)

    # Per speaker: its identity draw, then one block of utterance noise in
    # which row [u, 0] is utterance u's X noise and [u, 1] its Y noise.
    n_utts = config.n_enroll_utts + config.n_runtime_utts
    draws = [(prng.standard_normal(config.latent_dim),
              prng.standard_normal(n_utts, 2, config.latent_dim))
             for _ in range(config.n_speakers)]
    z = length_normalize(np.stack([zi for zi, _ in draws]))
    noise = np.stack([block for _, block in draws])  # (speaker, utt, view, dim)
    views = []
    for k, (sigma, dist) in enumerate(((config.within_noise_x, dist_x),
                                       (config.within_noise_y, dist_y))):
        noisy = z[:, None, :] + sigma * noise[:, :, k, :]
        views.append(dist.apply(length_normalize(noisy.reshape(-1, config.latent_dim))))
    vx, vy = views

    speakers = [f"s{config.seed}_{i:05d}" for i in range(config.n_speakers)]
    recs_x, recs_y = [], []
    for i, speaker in enumerate(speakers):
        for u in range(n_utts):
            split = "enroll" if u < config.n_enroll_utts else "runtime"
            utt = f"{speaker}_u{u:04d}"
            row = i * n_utts + u
            recs_x.append(EmbeddingRecord(speaker, utt, "X", split, vx[row]))
            recs_y.append(EmbeddingRecord(speaker, utt, "Y", split, vy[row]))
    latents = dict(zip(speakers, z))
    return Corpus(recs_x), Corpus(recs_y), GroundTruth(latents, dist_x, dist_y)


def make_trials(corpus_y: Corpus, n_target: int, n_imposter: int, seed: int) -> TrialSet:
    """Sample target and imposter trials over runtime utterances, no duplicates."""
    prng = Prng(seed)
    speakers = corpus_y.speaker_ids(split="runtime")
    if len(speakers) < 2:
        raise InsufficientData("need at least 2 speakers with runtime utterances")
    runtime = [r for r in corpus_y.records if r.split == "runtime"]

    target_pool = [(r.speaker_id, r.utterance_id) for r in runtime]
    # The imposter pool pairs each speaker in turn with every runtime
    # utterance of the others, and is indexed through per-speaker cumulative
    # sizes, not built. own[spk] holds p_m - m for the m-th runtime position
    # p_m of spk: the count of other speakers' utterances before it.
    own = {spk: [] for spk in speakers}
    for pos, r in enumerate(runtime):
        mine = own[r.speaker_id]
        mine.append(pos - len(mine))
    pool_ends = np.cumsum([len(runtime) - len(own[spk]) for spk in speakers])
    n_pool = int(pool_ends[-1])
    if n_target > len(target_pool):
        raise InsufficientData(
            f"requested {n_target} target trials, only {len(target_pool)} available"
        )
    if n_imposter > n_pool:
        raise InsufficientData(
            f"requested {n_imposter} imposter trials, only {n_pool} available"
        )

    t_idx = prng.choice(len(target_pool), n_target, replace=False)
    i_idx = np.sort(prng.choice(n_pool, n_imposter, replace=False))
    trials = [Trial(*target_pool[j], "target") for j in sorted(t_idx)]
    for k, j in zip(np.searchsorted(pool_ends, i_idx, side="right"), i_idx):
        spk = speakers[k]
        offset = int(j) - (int(pool_ends[k - 1]) if k else 0)
        # The offset-th foreign utterance follows each own one with <= offset before it.
        skipped = bisect_right(own[spk], offset)
        trials.append(Trial(spk, runtime[offset + skipped].utterance_id, "imposter"))
    return TrialSet(trials)
