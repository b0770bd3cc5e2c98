"""poolkit: feature-map pooling operators and the generic engine behind them."""

from .framework import (
    AttentionMatrix,
    AttnRule,
    FeatureMap,
    InitRule,
    MapRule,
    PooledSet,
    PoolingSpec,
    PoolRule,
    UpdateRule,
    pairwise_similarity,
    run_pooling,
)
from .meanfam import lse_pool, weighted_generalized_mean
from .simple_poolers import HowConfig, gap, gem, how, lse, max_pool
from .cluster_poolers import (
    NystromMap,
    SinkhornParams,
    SlotWeights,
    kmeans_distortion,
    kmeans_pool,
    otk_pool,
    sinkhorn,
    slot_pool,
)
from .reweight_poolers import CbamWeights, SeWeights, cbam_pool, se_pool
from .transformer_poolers import VitWeights, vit_cls_pool
from .simpool import SimPoolCache, SimPoolParams, simpool_backward, simpool_forward, simpool_gradcheck
from .gradcheck import GradReport, central_diff
from .attnmap import AttnGrid, BBox, largest_component_bbox, mass_threshold, reshape_attention, write_pgm
from .tensor_io import RunConfig, load_config, load_feature_map, read_npy, write_npy

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
