"""Minimal dense network with manual backprop, Adam, and a gradient checker.

Three weight layers, ReLU on the hidden layers, linear output (a ReLU output
would confine embeddings to the positive orthant and cripple cosine scoring).
Forward/backward operate on batches (n, d); parameters are plain numpy arrays
so the finite-difference checker can perturb them in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, DimensionMismatch, ShapeMismatch
from .numerics import Prng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Mlp:
    layer_dims: list[int]
    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def copy(self) -> "Mlp":
        return Mlp(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def mlp_init(dims, seed: int) -> Mlp:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDims(f"invalid layer dims {dims}")
    prng = Prng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = prng.uniform(-bound, bound, fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return Mlp(dims, weights, biases)


def forward(m: Mlp, x: np.ndarray):
    """Returns (y, cache); x may be (d,) or (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != m.in_dim:
        raise DimensionMismatch(f"input dim {x.shape[1]}, model expects {m.in_dim}")
    acts = [x]
    h = x
    n_layers = len(m.weights)
    pre = []
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < n_layers - 1 else z
        acts.append(h)
    y = acts[-1]
    cache = (acts, pre, squeeze)
    return (y[0] if squeeze else y), cache


def backward(m: Mlp, cache, dy: np.ndarray):
    """Reverse-mode gradients; returns (grads_w, grads_b, dx).

    ReLU subgradient at exactly 0 is taken as 0.
    """
    acts, pre, squeeze = cache
    dy = np.asarray(dy, dtype=np.float64)
    if squeeze and dy.ndim == 1:
        dy = dy[None, :]
    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    grad = dy
    for i in range(len(m.weights) - 1, -1, -1):
        if i < len(m.weights) - 1:
            grad = grad * (pre[i] > 0.0)
        grads_w[i] = grad.T @ acts[i]
        grads_b[i] = grad.sum(axis=0)
        grad = grad @ m.weights[i]
    dx = grad[0] if squeeze else grad
    return grads_w, grads_b, dx


def gradient_check(params, loss_fn, analytic_grads, h=1e-5, n_samples=200,
                   seed=0) -> float:
    """Max relative error between analytic grads and central differences.

    params and analytic_grads are parallel lists of arrays; loss_fn() evaluates
    the loss at the current (possibly perturbed) parameter values. Samples at
    least n_samples coordinates across all parameters (all of them if fewer).
    """
    prng = Prng(seed)
    flat_index = []
    for pi, p in enumerate(params):
        for j in range(p.size):
            flat_index.append((pi, j))
    total = len(flat_index)
    if total > n_samples:
        picks = prng.choice(total, n_samples, replace=False)
    else:
        picks = np.arange(total)
    worst = 0.0
    for k in picks:
        pi, j = flat_index[int(k)]
        p = params[pi].reshape(-1)
        orig = p[j]
        p[j] = orig + h
        up = loss_fn()
        p[j] = orig - h
        down = loss_fn()
        p[j] = orig
        numeric = (up - down) / (2 * h)
        analytic = analytic_grads[pi].reshape(-1)[j]
        err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    return worst


class AdamState:
    """First/second moment accumulators mirroring a parameter list."""

    def __init__(self, params, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """In-place Adam update with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params/grads/state length mismatch")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"parameter {p.shape} vs gradient {g.shape}")
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**state.t)
        v_hat = v / (1 - b2**state.t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class LrSchedule:
    lr0: float = 1e-3
    decay: float = 0.96

    def __post_init__(self):
        if self.lr0 <= 0 or not (0 < self.decay <= 1):
            raise BadDims("lr0 must be > 0 and decay in (0, 1]")


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    if epoch < 0:
        raise BadDims("epoch must be >= 0")
    return schedule.lr0 * schedule.decay**epoch


def mlp_to_dict(m: Mlp, seed: int = 0, trained_epochs: int = 0) -> dict:
    return {
        "layer_dims": list(m.layer_dims),
        "weights": [w.ravel().tolist() for w in m.weights],
        "biases": [b.ravel().tolist() for b in m.biases],
        "activation": "relu",
        "output_activation": "linear",
        "seed": seed,
        "trained_epochs": trained_epochs,
    }


def mlp_from_dict(obj: dict) -> Mlp:
    dims = [int(d) for d in obj["layer_dims"]]
    weights = []
    biases = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weights.append(np.array(obj["weights"][i], dtype=np.float64).reshape(fan_out, fan_in))
        biases.append(np.array(obj["biases"][i], dtype=np.float64))
    return Mlp(dims, weights, biases)
