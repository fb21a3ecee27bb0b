"""Exact arithmetic for one-parameter subgroup actions on affine toric
varieties: cone duality, Hilbert bases, grading classification, Demazure
roots, locally nilpotent derivations and their flows, limit points, and a
compatibility certificate tying them together."""

from .errors import (
    BoundExceeded,
    HypothesisError,
    IllDefinedRoot,
    NormalityRequired,
    NotADemazureRoot,
    NotEffective,
    NotFullDimensional,
    NotNonnegative,
    NotParabolic,
    NotPointed,
    RankLimitExceeded,
    ResourceError,
    SceneError,
    ToricError,
)
from .lattice import (
    M_SIDE,
    N_SIDE,
    LatticeVector,
    dot,
    gcd_all,
    generates_full_lattice,
    integer_kernel,
    matrix_rank,
    pairing,
    primitive,
)
from .cones import RANK_LIMIT, Cone, Face
from .monoid import (
    HILBERT_RANK_LIMIT,
    AffineMonoid,
    SaturationResult,
    hilbert_basis,
)
from .grading import (
    FixedDivisor,
    GradingClass,
    GradingKind,
    StraighteningSet,
    classify,
    fixed_locus,
    straightening_subtori,
)
from .demazure import DemazureRoot, is_root, root_growth_witness, roots_in_box
from .algebra import AlgebraElement, HomogeneousLND
from .orbits import (
    CompatibilityReport,
    InvariantCheck,
    ToricPoint,
    evaluate,
    ga_flow_point,
    gm_scale,
    limit_point,
    smallest_root_at_ray,
    torus_point,
    verify_compatible,
)
from .scene import Scene, load_scene
from .report import Report, render_text

__version__ = "0.1.0"

__all__ = [
    "AffineMonoid",
    "AlgebraElement",
    "BoundExceeded",
    "CompatibilityReport",
    "Cone",
    "DemazureRoot",
    "Face",
    "FixedDivisor",
    "GradingClass",
    "GradingKind",
    "HILBERT_RANK_LIMIT",
    "HomogeneousLND",
    "HypothesisError",
    "IllDefinedRoot",
    "InvariantCheck",
    "LatticeVector",
    "M_SIDE",
    "N_SIDE",
    "NormalityRequired",
    "NotADemazureRoot",
    "NotEffective",
    "NotFullDimensional",
    "NotNonnegative",
    "NotParabolic",
    "NotPointed",
    "RANK_LIMIT",
    "RankLimitExceeded",
    "Report",
    "ResourceError",
    "SaturationResult",
    "Scene",
    "SceneError",
    "StraighteningSet",
    "ToricError",
    "ToricPoint",
    "classify",
    "dot",
    "evaluate",
    "fixed_locus",
    "ga_flow_point",
    "gcd_all",
    "generates_full_lattice",
    "gm_scale",
    "hilbert_basis",
    "integer_kernel",
    "is_root",
    "limit_point",
    "load_scene",
    "matrix_rank",
    "pairing",
    "primitive",
    "render_text",
    "root_growth_witness",
    "roots_in_box",
    "smallest_root_at_ray",
    "straightening_subtori",
    "torus_point",
    "verify_compatible",
    "__version__",
]
