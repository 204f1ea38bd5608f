"""Synthetic two-view corpus generator.

A shared latent speaker space is observed through two distortion "models"
X and Y. Each (speaker, utterance) pair has one underlying identity draw;
each view adds its own within-speaker noise before its distortion map, so
the two corpora are utterance-paired while the per-view noise levels encode
the quality gap between the models.

A corpus takes one draw of standard normals, an (n_speakers, latent_dim *
(1 + 2 * n_utts)) block in speaker order. A speaker's row holds its identity
draw z, then its noise as (utterance, view, latent_dim), view 0 for X and 1
for Y. PCG64 fills the block in the order that one draw of z and one of the
noise per speaker would take, so the values do not depend on the split.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import Corpus, TrialSet
from .errors import ConfigInvalid, InsufficientData
from .numerics import Prng, finite_number, length_normalize, random_orthogonal

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
        for name in ("within_noise_x", "within_noise_y", "nonlinear_gain"):
            if not finite_number(getattr(self, name)):
                raise ConfigInvalid(f"{name} = {getattr(self, name)!r} is not finite")
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
            if not np.isfinite(w1).all():
                raise ConfigInvalid(f"nonlinear_gain = {gain!r} overflows the map's weights")
            w2 = prng.standard_normal(embed_dim, hidden) / np.sqrt(hidden)
            self.params = {"w1": w1, "w2": w2}
        else:
            raise ConfigInvalid(f"unknown distortion {kind!r}")

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Map latent rows (n, latent_dim) to unit embedding rows (n, embed_dim)."""
        p = self.params
        if self.kind == "identity":
            out = u
        elif self.kind == "orthogonal":
            out = u @ p["q"].T
        elif self.kind == "affine":
            out = u @ p["a"].T
            out += p["b"]
        else:
            out = u @ p["w1"].T
            out = np.tanh(out, out=out) @ p["w2"].T
        return length_normalize(out)


@dataclass
class GroundTruth:
    distortion_x: Distortion
    distortion_y: Distortion


def generate(config: SynthConfig) -> tuple[Corpus, Corpus, GroundTruth]:
    """Generate the paired corpora for views X and Y plus the ground truth."""
    config.validate()
    prng = Prng(config.seed)
    model_seed = config.model_seed if config.model_seed is not None else config.seed
    model_prng = Prng(model_seed)
    # A finite setting can still overflow a map or a view; the row it spoils
    # is refused by length_normalize, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        dist_x = Distortion(config.distortion_x, config.latent_dim, config.embed_dim,
                            model_prng, config.nonlinear_gain)
        dist_y = Distortion(config.distortion_y, config.latent_dim, config.embed_dim,
                            model_prng, config.nonlinear_gain)

        # The one draw of the corpus (see the module docstring). Each view's
        # noise is scaled, then shifted by z: the same sums as z + sigma * noise.
        n_utts = config.n_enroll_utts + config.n_runtime_utts
        dim = config.latent_dim
        draw = prng.standard_normal(config.n_speakers, dim * (1 + 2 * n_utts))
        z = length_normalize(draw[:, :dim])[:, None, :]
        noise = draw[:, dim:].reshape(config.n_speakers, n_utts, 2, dim)
        noisy = [noise[:, :, k, :] * sigma
                 for k, sigma in enumerate((config.within_noise_x, config.within_noise_y))]
        del draw, noise
        views = []
        for dist in (dist_x, dist_y):
            u = noisy.pop(0)
            u += z
            u = length_normalize(u.reshape(-1, dim))
            views.append(dist.apply(u))
    vx, vy = views

    # One id column of each kind, shared by both views.
    speakers = [f"s{config.seed}_{i:05d}" for i in range(config.n_speakers)]
    speaker_col = [speaker for speaker in speakers for _ in range(n_utts)]
    suffixes = [f"_u{u:04d}" for u in range(n_utts)]
    utterances = [speaker + suffix for speaker in speakers for suffix in suffixes]
    splits = (["enroll"] * config.n_enroll_utts
              + ["runtime"] * config.n_runtime_utts) * config.n_speakers
    n = len(utterances)
    return (Corpus(speaker_col, utterances, ["X"] * n, splits, vx),
            Corpus(speaker_col, utterances, ["Y"] * n, splits, vy),
            GroundTruth(dist_x, dist_y))


def make_trials(corpus_y: Corpus, n_target: int, n_imposter: int, seed: int) -> TrialSet:
    """Sample target and imposter trials over runtime utterances, no duplicates."""
    if min(n_target, n_imposter) < 0:
        raise ConfigInvalid(f"trial counts must be >= 0, got {n_target} target and "
                            f"{n_imposter} imposter trials")
    prng = Prng(seed)
    rows = corpus_y.rows("runtime")
    runtime_speakers = [corpus_y.speakers[i] for i in rows]
    runtime_utts = [corpus_y.utterances[i] for i in rows]
    speakers = list(dict.fromkeys(runtime_speakers))
    if len(speakers) < 2:
        raise InsufficientData("need at least 2 speakers with runtime utterances")

    # The imposter pool pairs each speaker in turn with every runtime
    # utterance of the others, and is indexed through per-speaker cumulative
    # sizes, not built. own[spk] holds p_m - m for the m-th runtime position
    # p_m of spk: the count of other speakers' utterances before it.
    own = {spk: [] for spk in speakers}
    for pos, speaker in enumerate(runtime_speakers):
        mine = own[speaker]
        mine.append(pos - len(mine))
    pool_ends = np.cumsum([len(rows) - len(own[spk]) for spk in speakers])
    n_pool = int(pool_ends[-1])
    if n_target > len(rows):
        raise InsufficientData(
            f"requested {n_target} target trials, only {len(rows)} available"
        )
    if n_imposter > n_pool:
        raise InsufficientData(
            f"requested {n_imposter} imposter trials, only {n_pool} available"
        )

    t_idx = sorted(prng.choice(len(rows), n_target, replace=False).tolist())
    i_idx = np.sort(prng.choice(n_pool, n_imposter, replace=False))
    enroll = [runtime_speakers[j] for j in t_idx]
    test = [runtime_utts[j] for j in t_idx]
    for k, j in zip(np.searchsorted(pool_ends, i_idx, side="right"), i_idx):
        spk = speakers[k]
        offset = int(j) - (int(pool_ends[k - 1]) if k else 0)
        # The offset-th foreign utterance follows each own one with <= offset before it.
        skipped = bisect_right(own[spk], offset)
        enroll.append(spk)
        test.append(runtime_utts[offset + skipped])
    return TrialSet.of_columns(enroll, test,
                               ["target"] * n_target + ["imposter"] * n_imposter)
