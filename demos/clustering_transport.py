"""Soft and hard clustering as pooling: transport plans and Lloyd steps.

First sweeps the entropic regularizer of the transport-plan pooler on a
tiny two-cluster problem to show the plan interpolating between a hard
assignment and the product of the marginals.  Then runs k-means in its
matrix form and prints the distortion descending monotonically.

Run:  python3 demos/clustering_transport.py
"""

import numpy as np

from poolkit import FeatureMap, run_pooling
from poolkit.cluster_poolers import (
    SinkhornParams,
    kmeans_distortion,
    kmeans_spec,
    otk_pool,
    sinkhorn,
)


def transport_sweep():
    print("== entropic transport plan vs regularization ==")
    cost = np.array([[0.0, 10.0], [10.0, 0.0]])
    for eps in (0.05, 0.5, 2.0, 50.0):
        plan = sinkhorn(cost, SinkhornParams(epsilon=eps))
        print(f"eps={eps:<5g} plan rows: "
              + "  ".join(f"[{row[0]:.4f} {row[1]:.4f}]" for row in plan))
    print("small eps -> the optimal assignment; large eps -> uniform 0.25\n")

    print("== anchors recover cluster means ==")
    fm = FeatureMap.from_array(np.array([[0.1, -0.1, 9.9, 10.1]]))
    pooled = otk_pool(fm, anchors=np.array([[0.0, 10.0]]), epsilon=0.05)
    print(f"features {fm.x[0]}, anchors [0, 10] -> pooled columns "
          f"{pooled.u[0].round(4)}\n")


def kmeans_descent():
    print("== k-means matrix-form Lloyd steps ==")
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 8.0, -6.0], [0.0, 5.0, 4.0]])
    x = np.repeat(centers, 12, axis=1) + 0.8 * rng.standard_normal((2, 36))
    fm = FeatureMap.from_array(x)
    u = x[:, rng.choice(36, size=3, replace=False)].copy()
    print(f"{'step':>4} {'distortion':>12}")
    for step in range(8):
        print(f"{step:>4} {kmeans_distortion(x, u):>12.4f}")
        # one pass of the engine loop from the current centroids, U^0 = u
        u = run_pooling(kmeans_spec(1, u), fm).u
    print(f"final centroids (columns):\n{u.round(3)}")


def main():
    transport_sweep()
    kmeans_descent()


if __name__ == "__main__":
    main()
