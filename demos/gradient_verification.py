"""Analytic gradients of the attention pooler vs central differences.

Runs the exact backward pass of the attention pooler on random inputs
and compares every coordinate of the three gradients (query weights,
key weights, input features) against a two-sided finite-difference
oracle, printing the worst relative error per trial.

Run:  python3 demos/gradient_verification.py
"""

import numpy as np

from poolkit import FeatureMap
from poolkit.simpool import SimPoolParams, simpool_gradcheck


def check_trial(trial: int, gamma: float, d: int = 8, p: int = 12) -> float:
    rng = np.random.default_rng(trial)
    x = rng.standard_normal((d, p))
    du = rng.standard_normal(d)
    params = SimPoolParams.seeded(d, gamma=gamma, seed=1000 + trial)

    worst = 0.0
    for report in simpool_gradcheck(FeatureMap.from_array(x), params, du):
        worst = max(worst, report.max_rel_error)
        print(f"  trial {trial} gamma={gamma:<4g} {report.name:<4} "
              f"max rel err {report.max_rel_error:.3e} "
              f"(mean {report.mean_rel_error:.3e})")
    return worst


def main():
    print("analytic backward vs central differences (h=1e-4):")
    worst = 0.0
    for gamma in (1.25, 2.0):
        for trial in range(3):
            worst = max(worst, check_trial(trial, gamma))
    verdict = "PASS" if worst <= 1e-5 else "FAIL"
    print(f"\nworst relative error over all trials: {worst:.3e}  -> {verdict} "
          "(tolerance 1e-5)")


if __name__ == "__main__":
    main()
