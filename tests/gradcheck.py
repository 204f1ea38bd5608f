"""Finite-difference gradient checker for the tests of analytic gradients.

The name does not match test_*.py, so pytest does not collect it; test modules
import it as ``from gradcheck import gradient_check``.
"""

import numpy as np

from sidalign.numerics import Prng


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
        picks = prng.choice(total, n_samples)
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
