"""Dense linear algebra and seeded randomness primitives.

All vectors and matrices are float64 numpy arrays. Operations validate
finiteness and dimensions and raise the package exception types instead of
letting numpy produce NaNs silently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, ZeroVector

# Norms below this are treated as the zero vector; far below any realistic
# embedding norm.
EPS_NORM = 1e-12


def finite_number(value) -> bool:
    """Whether a value read from a flag or a JSON file is a finite number; a
    bool is not one."""
    try:  # TypeError: not a number; OverflowError: an int beyond float
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def number_list(values) -> bool:
    """Whether a value read from a JSON file is a list of numbers, ints or
    floats; a bool or a quoted number is not one."""
    return isinstance(values, list) and {*map(type, values)} <= {float, int}


def whole_number(value) -> bool:
    """Whether a value read from a JSON file is a finite number with no
    fractional part, as an int or a float; a bool is not one."""
    return finite_number(value) and float(value).is_integer()


def length_normalize(v) -> np.ndarray:
    """Scale every row of a (d,) or (n, d) array to unit L2 norm; ZeroVector of
    the first row whose norm is <= EPS_NORM or not finite. Each norm is reduced
    over one contiguous row, so a row gives the same bits alone as in a block."""
    arr = np.asarray(v, dtype=np.float64, order="C")
    if arr.ndim not in (1, 2):
        raise DimensionMismatch(f"expected a vector or rows, got shape {arr.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    ok = (norms > EPS_NORM) & np.isfinite(norms)
    if not ok.all():
        row = int(np.argmin(ok))
        raise ZeroVector(f"cannot normalize a row of norm {norms.flat[row]:g}", row=row)
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


def cholesky_upper(a) -> np.ndarray:
    """Upper-triangular (k, k) M with M^T M = a^T a for rows a of shape (n, k):
    the R of a QR of a, with zero rows below it when n < k. a^T a is never
    formed, so rank-deficient rows need no regularisation."""
    rows = np.asarray(a, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionMismatch(f"expected rows of shape (n, k), got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ZeroVector("matrix contains non-finite entries")
    n, k = rows.shape
    r = np.linalg.qr(rows, mode="r")
    return r if n >= k else np.vstack([r, np.zeros((k - n, k))])


class Prng:
    """Deterministic random stream (PCG64); identical seed => identical stream.

    Single-owner: concurrent use requires independent instances.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigInvalid(f"seed {seed!r} is negative; a seed must be >= 0")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, *shape) -> np.ndarray:
        return self._gen.standard_normal(shape if shape else None)

    def uniform(self, lo: float, hi: float, n: int | None = None) -> np.ndarray:
        if hi <= lo:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        return self._gen.uniform(lo, hi, n)

    def integers(self, lo: int, hi: int, n: int | None = None):
        return self._gen.integers(lo, hi, size=n)

    def choice(self, n: int, size: int) -> np.ndarray:
        """size distinct draws from range(n)."""
        return self._gen.choice(n, size=size, replace=False)

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
