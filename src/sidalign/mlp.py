"""Minimal dense network with manual backprop and Adam.

Three weight layers, ReLU on the hidden layers, linear output (a ReLU output
would confine embeddings to the positive orthant and cripple cosine scoring).
Forward/backward operate on batches of rows (n, d) in the dtype of the
network's weights: training runs float32 networks, scoring and the gradient
check float64 ones, through the same code. Parameters are plain numpy arrays
that training updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import Prng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Mlp:
    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> list[int]:
        """The input width, then each layer's output width."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def parameters(self) -> list[np.ndarray]:
        """Each layer's weights, then its biases, input layer first."""
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def astype(self, dtype) -> "Mlp":
        """A copy with every parameter cast to dtype."""
        return Mlp([w.astype(dtype) for w in self.weights],
                   [b.astype(dtype) for b in self.biases])


def mlp_init(dims, seed: int) -> Mlp:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DimensionMismatch(f"invalid layer dims {dims}")
    prng = Prng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = prng.uniform(-bound, bound, fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases)


def forward(m: Mlp, x: np.ndarray):
    """Returns (y, cache) for a batch of rows x of shape (n, d), computed in
    the weights' dtype."""
    x = np.asarray(x, dtype=m.weights[0].dtype)
    d = m.weights[0].shape[1]
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatch(f"input of shape {x.shape}, model expects (n, {d})")
    # Each layer adds its bias and applies its ReLU in place, in the GEMM's
    # output: one array per layer, and the cache holds only the activations.
    acts = [x]
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = acts[-1] @ w.T
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts[-1], acts


def backward(m: Mlp, cache, dy: np.ndarray) -> list[np.ndarray]:
    """Reverse-mode gradients of the parameters, in ``m.parameters()`` order.

    ReLU subgradient at exactly 0 is taken as 0: the mask reads the layer's
    output, which is > 0 exactly where its pre-activation is (NaN included).
    The gradient of the input is not formed: training never reads it.
    Computed in the weights' dtype.
    """
    acts = cache
    grad = np.asarray(dy, dtype=m.weights[0].dtype)
    grads = []
    for i in range(len(m.weights) - 1, -1, -1):
        if i < len(m.weights) - 1:
            grad = grad @ m.weights[i + 1]
            grad *= acts[i + 1] > 0.0  # in place: the product's bits, one array less
        grads += [grad.sum(axis=0), grad.T @ acts[i]]
    return grads[::-1]


class AdamState:
    """First/second moment accumulators mirroring a parameter list, plus two
    scratch buffers, each as large as the largest parameter, that adam_step
    computes in. All are in the parameters' dtype."""

    def __init__(self, params):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        size = max((p.size for p in params), default=0)
        dtype = np.result_type(*params) if params else np.float64
        self.scratch = (np.empty(size, dtype), np.empty(size, dtype))
        self.t = 0


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """In-place Adam update with bias correction.

    Computes in the state's scratch buffers, so no parameter-sized temporary
    is allocated, with the operations and their grouping of the textbook form
    ``p -= (lr * m_hat) / (sqrt(v_hat) + eps)`` (multiplication commutes
    exactly in IEEE arithmetic, so ``g * c`` has the bits of ``c * g``).
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatch("params/grads/state length mismatch")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise DimensionMismatch(f"parameter {p.shape} vs gradient {g.shape}")
        a, b = (buf[:p.size].reshape(p.shape) for buf in state.scratch)
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)  # (1 - b1) * g
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        v += np.multiply(a, g, out=a)  # ((1 - b2) * g) * g
        np.divide(v, 1 - b2**state.t, out=a)  # v_hat
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, 1 - b1**state.t, out=b)  # m_hat
        b *= lr
        p -= np.divide(b, a, out=b)


def mlp_to_dict(m: Mlp, seed: int = 0, trained_epochs: int = 0) -> dict:
    return {
        "layer_dims": m.layer_dims,
        "weights": [w.ravel().tolist() for w in m.weights],
        "biases": [b.ravel().tolist() for b in m.biases],
        "activation": "relu",
        "output_activation": "linear",
        "seed": seed,
        "trained_epochs": trained_epochs,
    }


def mlp_from_dict(obj: dict) -> Mlp:
    """The network that mlp_to_dict wrote; ValueError unless the activations
    are relu then linear and every layer has its shape and finite values."""
    activations = (obj["activation"], obj["output_activation"])
    if activations != ("relu", "linear"):
        raise ValueError(f"activations {activations}, expected ('relu', 'linear')")
    dims = [int(d) for d in obj["layer_dims"]]
    if len(dims) < 2 or min(dims) < 1 or not (
            len(obj["weights"]) == len(obj["biases"]) == len(dims) - 1):
        raise ValueError(f"layer dims {dims} with {len(obj['weights'])} weight and "
                         f"{len(obj['biases'])} bias layers")
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weights.append(_layer(obj["weights"][i], fan_out * fan_in, f"weights {i}")
                       .reshape(fan_out, fan_in))
        biases.append(_layer(obj["biases"][i], fan_out, f"biases {i}"))
    return Mlp(weights, biases)


def _layer(values, size: int, name: str) -> np.ndarray:
    """A flat list of ``size`` finite floats, as an array."""
    a = np.array(values, dtype=np.float64)
    if a.shape != (size,):
        raise ValueError(f"{name} has shape {a.shape}, expected ({size},)")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite value")
    return a
