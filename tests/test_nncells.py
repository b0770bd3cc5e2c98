"""Seeded weights: each public ``seeded`` constructor makes one generator
and draws from it exactly the normals its weight set declares."""

import numpy as np
import pytest

from poolkit.cluster_poolers import SlotWeights
from poolkit.reweight_poolers import CbamWeights, SeWeights
from poolkit.simpool import SimPoolParams
from poolkit.transformer_poolers import VitWeights

# name -> (constructor of (d, seed), sizes of the arrays it declares, in order)
CONSTRUCTORS = {
    "slot": (lambda d, s: SlotWeights.seeded(d, seed=s),
             lambda d: [d * d] * 3 + [d, d] + [d * d] * 8),  # W_Q, W_K, W_V, mu, sigma, GRU, MLP
    "se": (lambda d, s: SeWeights.seeded(d, seed=s), lambda d: [d * d // 4] * 2),
    "cbam": (lambda d, s: CbamWeights.seeded(d, seed=s), lambda d: [d * d // 4] * 2 + [2 * 7 * 7]),
    "vit": (lambda d, s: VitWeights.seeded(d, 2, seed=s), lambda d: [d * d] * 12 + [d]),
    "simpool": (lambda d, s: SimPoolParams.seeded(d, seed=s), lambda d: [d * d] * 2),
}
CASES = [(name, d, seed) for name in CONSTRUCTORS
         for d, seed in ((1, 2**64 - 1), (8, 0), (2048, 3))
         if d % 4 == 0 or name not in ("se", "cbam")]  # SE and CBAM need 4 | d


@pytest.mark.parametrize("name, d, seed", CASES)
def test_seeded_weights_come_from_one_stream(monkeypatch, name, d, seed):
    default_rng, made = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: made.append(default_rng(s)) or made[-1])
    construct, sizes = CONSTRUCTORS[name]
    construct(d, seed)
    fresh = default_rng(seed)
    for n in sizes(d):
        fresh.standard_normal(n)
    assert [g.bit_generator.state for g in made] == [fresh.bit_generator.state]
