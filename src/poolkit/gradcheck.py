"""Finite-difference oracle for verifying analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, NumericError


@dataclass
class GradReport:
    name: str
    max_rel_error: float
    mean_rel_error: float
    worst_index: tuple[int, ...]

    def passes(self, tol: float) -> bool:
        return self.max_rel_error <= tol


def central_diff(f: Callable[[np.ndarray], float], theta: np.ndarray,
                 h: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided difference (f(t+h e) - f(t-h e)) / 2h per coordinate, and
    the rounding error each difference can carry: 64 ulps of f(t+h e) and of
    f(t-h e), over 2h.  An evaluation of f rounds many times, and where its
    terms cancel, its error exceeds one ulp of its value."""
    if not (1e-8 <= h <= 1e-2):
        raise ContractError(f"central_diff: h must be in [1e-8, 1e-2], got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    noise = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = theta.copy()
        bumped[idx] = theta[idx] + h
        f_plus = f(bumped)
        bumped[idx] = theta[idx] - h
        f_minus = f(bumped)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"central_diff: non-finite evaluation at {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        noise[idx] = 64 * np.finfo(np.float64).eps * (abs(f_plus) + abs(f_minus)) / (2.0 * h)
    return grad, noise


def rel_error_matrix(g1: np.ndarray, g2: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Symmetric relative error per coordinate of the part of |g1 - g2|
    beyond ``noise``, the rounding error of the central difference: a
    difference within it is no error, whatever the gradients' scale."""
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    excess = np.maximum(np.abs(g1 - g2) - noise, 0.0)
    # the excess is 0 wherever |g1| + |g2| is, so the floor only avoids 0/0
    return excess / np.maximum(np.abs(g1) + np.abs(g2), np.finfo(np.float64).tiny)


def compare(name: str, analytic: np.ndarray, numeric: np.ndarray, noise: np.ndarray) -> GradReport:
    errs = rel_error_matrix(analytic, numeric, noise)
    worst = np.unravel_index(int(np.argmax(errs)), errs.shape)
    return GradReport(
        name=name,
        max_rel_error=float(errs.max()),
        mean_rel_error=float(errs.mean()),
        worst_index=tuple(int(i) for i in worst),
    )
