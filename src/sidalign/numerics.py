"""Dense linear algebra and seeded randomness primitives.

All vectors and matrices are float64 numpy arrays. Operations validate
finiteness and dimensions and raise the package exception types instead of
letting numpy produce NaNs silently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotDecomposable, NotSymmetric, ZeroVector

# Norms below this are treated as the zero vector; far below any realistic
# embedding norm.
EPS_NORM = 1e-12

# Jitter ladder multipliers for near-singular Gram matrices, scaled by
# trace(a)/dim(a).
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


def length_normalize(v) -> np.ndarray:
    """Scale every row of a (d,) or (n, d) array to unit L2 norm; ZeroVector
    if a row's norm is <= EPS_NORM or not finite. Each norm is reduced over
    one contiguous row, so a row gives the same bits alone as in a block."""
    arr = np.asarray(v, dtype=np.float64, order="C")
    if arr.ndim not in (1, 2):
        raise DimensionMismatch(f"expected a vector or rows, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    ok = (norms > EPS_NORM) & np.isfinite(norms)
    if not ok.all():
        raise ZeroVector(f"cannot normalize a row of norm {norms[~ok][0]:g}")
    return arr / norms


def cosine_similarity(a, b) -> float:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or va.shape != vb.shape:
        raise DimensionMismatch(f"cosine of {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if not (EPS_NORM < na < np.inf and EPS_NORM < nb < np.inf):
        raise ZeroVector("cosine similarity of a zero or non-finite vector")
    return float(np.dot(va, vb) / (na * nb))


def cholesky_upper(a, max_jitter_ladder=JITTER_LADDER) -> tuple[np.ndarray, float]:
    """Upper-triangular M with M^T M = a (+ jitter*I when a is near singular).

    Returns (m, jitter_applied). Near-singular input is handled by a jitter
    ladder scaled by trace(a)/dim(a); NotDecomposable is raised only when the
    largest jitter still fails (indefinite input).
    """
    ma = np.asarray(a, dtype=np.float64)
    if ma.ndim != 2 or ma.shape[0] != ma.shape[1]:
        raise DimensionMismatch(f"cholesky of non-square matrix {ma.shape}")
    if not np.all(np.isfinite(ma)):
        raise ZeroVector("matrix contains non-finite entries")
    n = ma.shape[0]
    scale = float(np.max(np.abs(ma)))
    asym = float(np.max(np.abs(ma - ma.T)))
    if asym > 1e-9 * max(scale, 1.0):
        raise NotSymmetric(f"matrix asymmetry {asym:g} exceeds tolerance")
    sym = 0.5 * (ma + ma.T)
    base = float(np.trace(sym)) / n if n else 0.0
    for lam in max_jitter_ladder:
        jitter = lam * base
        target = sym + jitter * np.eye(n)
        try:
            lower = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            continue
        # Reject numerically bogus factorizations of near-singular input.
        rel = np.linalg.norm(lower @ lower.T - target) / max(np.linalg.norm(target), 1e-300)
        if rel > 1e-8:
            continue
        return lower.T.copy(), jitter
    raise NotDecomposable("matrix is not positive definite even after max jitter")


class Prng:
    """Deterministic random stream (PCG64); identical seed => identical stream.

    Single-owner: concurrent use requires independent instances.
    """

    ALGORITHM = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, *shape) -> np.ndarray:
        return self._gen.standard_normal(shape if shape else None)

    def uniform(self, lo: float, hi: float, n: int | None = None) -> np.ndarray:
        if hi <= lo:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        return self._gen.uniform(lo, hi, n)

    def integers(self, lo: int, hi: int, n: int | None = None):
        return self._gen.integers(lo, hi, size=n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def random_orthogonal(rows: int, cols: int, prng: Prng) -> np.ndarray:
    """Random matrix with orthonormal columns (rows >= cols required)."""
    if rows < cols:
        raise DimensionMismatch(f"orthonormal columns need rows >= cols, got {rows}x{cols}")
    g = prng.standard_normal(rows, cols)
    q, r = np.linalg.qr(g)
    # Fix signs so the map is unique given the Gaussian draw.
    q = q * np.sign(np.diag(r))
    return q
