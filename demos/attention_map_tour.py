"""From attention vector to image: thresholding and localization.

Creates a feature map with a bright off-center blob, pools it with the
attention pooler, reshapes the attention onto the spatial grid, keeps
the smallest set of cells holding 60% of the attention mass, finds the
bounding box of the largest connected region, and writes both the raw
map and the binary mask as PGM images.

Run:  python3 demos/attention_map_tour.py
Outputs: demo_attention.pgm, demo_mask.pgm (in the working directory)
"""

import numpy as np

from poolkit import FeatureMap
from poolkit.attnmap import largest_component_bbox, mass_threshold, reshape_attention, write_pgm
from poolkit.simpool import SimPoolParams, simpool_forward


def blob_features(d=32, width=14, height=14, seed=0):
    """Background noise plus a strong localized blob of correlated channels."""
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal((d, height * width))
    pattern = rng.standard_normal(d) * 3.0
    for y in range(4, 9):
        for xx in range(7, 12):
            x[:, y * width + xx] += pattern
    return FeatureMap(x, width=width, height=height)


def render(mask):
    return "\n".join("".join("#" if c else "." for c in row) for row in mask)


def main():
    fm = blob_features()
    # Share one projection for query and key: per-column normalization keeps
    # only the blob's direction, and a shared random projection preserves the
    # positive query/key alignment that independent projections would scramble.
    w = np.random.default_rng(4).normal(scale=1.0 / np.sqrt(fm.d), size=(fm.d, fm.d))
    u, a, _ = simpool_forward(fm, SimPoolParams(w_q=w, w_k=w, gamma=2.0))
    print(f"pooled vector: d={u.size}, attention sums to {a.sum():.12f}")

    grid = reshape_attention(a, fm.width, fm.height)
    mask = mass_threshold(grid, fraction=0.6)
    box = largest_component_bbox(mask)
    print(f"cells kept at 60% mass: {sum(map(sum, mask))} of {fm.p}")
    print(f"largest-region bounding box: x=[{box.x_min},{box.x_max}] "
          f"y=[{box.y_min},{box.y_max}] (blob was planted at x=[7,11] y=[4,8])")
    print(render(mask))

    write_pgm(grid, "demo_attention.pgm")
    write_pgm(mask, "demo_mask.pgm")
    print("wrote demo_attention.pgm and demo_mask.pgm")


if __name__ == "__main__":
    main()
