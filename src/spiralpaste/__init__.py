"""Constructive bilipschitz embeddings into sums of sup-norm blocks."""

from .counterexample import (
    CounterexampleConfig,
    SeparationWitness,
    ball_point_count,
    in_carrier,
    linf_distance,
    ray_point,
    separation_witness,
    to_metric_space,
    verify_metric_ray,
    verify_separation_epsilon,
)
from .errors import (
    ModelInvalid,
    ScheduleTooShort,
    SchemaError,
    SpiralPasteError,
)
from .fdd import (
    EquivalenceReport,
    FddModel,
    NoCotypeReport,
    embed_no_cotype,
    equivalence_ratio,
    pair_isometry_check,
    validate_model,
)
from .frechet import FrechetMap, frechet_embed
from .metric import (
    DistortionReport,
    PointedMetricSpace,
    ball,
    distortion,
    load_map,
    load_space,
    packing_bound,
    read_document,
    space_to_doc,
    sup_pairwise,
)
from .spaces import grid_space, line_space, tree_space
from .spiral import (
    BlockLayout,
    PastedEmbedding,
    RadiiSchedule,
    analytic_bound,
    blend,
    blend_theta,
    c_constant,
    needed_bands,
    paste,
    radii_schedule,
    seam_check,
    small_norm_ratio,
    spiral_distortion,
    spiral_point,
)
from .sumspace import SUP, BlockVector, SumSpaceSpec

__version__ = "0.1.0"
