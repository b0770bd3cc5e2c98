"""Tour of the pooling landscape on one synthetic feature map.

Builds a small clustered feature matrix, then runs every pooling method
in the library on it and prints the pooled vector norm, the squared
distortion of the input against the pooled set, and the attention
entropy -- the same summary columns the `poolkit tournament` command
reports.

Run:  python3 demos/pooling_landscape.py
"""

import numpy as np

from poolkit import FeatureMap
from poolkit.cli import run_method
from poolkit.cluster_poolers import kmeans_distortion
from poolkit.tensor_io import METHODS, config_from_dict
from poolkit.tournament import _attention_entropy, _synthesize_features, tournament_epsilon


def main():
    d, p = 16, 64
    fm = _synthesize_features(d, p, k_clusters=4, seed=0)
    print(f"feature map: d={d}, p={p} ({fm.width}x{fm.height} grid), "
          f"4 planted clusters\n")
    print(f"{'method':<14} {'norm':>10} {'distortion':>12} {'entropy':>9}")

    for method in METHODS:
        # epsilon, read by sinkhorn-otk alone, is the one `poolkit tournament` uses
        cfg = config_from_dict({"method": method, "seed": 0, "k": 4, "epsilon": tournament_epsilon(fm)})
        pooled = run_method(cfg, fm)
        norm = np.linalg.norm(pooled.u)
        dist = kmeans_distortion(fm.x, pooled.u)
        ent = _attention_entropy(pooled)
        print(f"{method:<14} {norm:>10.4f} {dist:>12.2f} {ent:>9.4f}")

    print("\nNotes: k>1 methods (sinkhorn-otk, kmeans) summarize the map with")
    print("several vectors, hence the much lower distortion. gap, max, gem and")
    print(f"lse weigh every location alike: their entropy is ln p = {np.log(p):.4f},")
    print("the largest a single attention column can have.")


if __name__ == "__main__":
    main()
