"""Test-only oracles that the package itself never calls."""

from typing import Callable

import numpy as np

from virlab.tensor import Tensor


def finite_diff_grad(f: Callable[[Tensor], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, the autodiff oracle.

    ``f`` receives a plain (non-grad) Tensor and must return a float or a
    scalar Tensor. Cost is two evaluations per coordinate of x.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)

    def evaluate(values: np.ndarray) -> float:
        r = f(Tensor(values.reshape(x.shape)))
        return r.item() if isinstance(r, Tensor) else float(r)

    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        hi = evaluate(bumped)
        bumped[i] = flat[i] - h
        lo = evaluate(bumped)
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad
