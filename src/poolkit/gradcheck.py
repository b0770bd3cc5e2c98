"""Finite-difference oracle for verifying analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, NumericError


@dataclass(frozen=True)
class GradReport:
    name: str
    max_rel_error: float
    mean_rel_error: float
    worst_index: tuple[int, ...]

    def passes(self, tol: float) -> bool:
        return self.max_rel_error <= tol


def central_diff(f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Two-sided difference (f(t+h e) - f(t-h e)) / 2h per coordinate."""
    if not (1e-8 <= h <= 1e-2):
        raise ContractError(f"central_diff: h must be in [1e-8, 1e-2], got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
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
    return grad


def rel_error_matrix(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Symmetric relative error per coordinate with a 1e-12 floor."""
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    denom = np.maximum(1e-12, np.abs(g1) + np.abs(g2))
    return np.abs(g1 - g2) / denom


def compare(name: str, analytic: np.ndarray, numeric: np.ndarray) -> GradReport:
    errs = rel_error_matrix(analytic, numeric)
    worst = np.unravel_index(int(np.argmax(errs)), errs.shape)
    return GradReport(
        name=name,
        max_rel_error=float(errs.max()),
        mean_rel_error=float(errs.mean()),
        worst_index=tuple(int(i) for i in worst),
    )
