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
    generates_full_lattice,
    integer_kernel,
    matrix_rank,
    primitive,
)
from .cones import RANK_LIMIT, Cone, Face
from .monoid import AffineMonoid, SaturationResult, hilbert_basis
from .grading import (
    FixedDivisor,
    GradingClass,
    GradingKind,
    classify,
    straightening_subtori,
)
from .demazure import DemazureRoot, is_root, roots_in_box, smallest_root_at_ray
from .algebra import HomogeneousLND
from .orbits import (
    CompatibilityReport,
    InvariantCheck,
    ToricPoint,
    ga_flow_point,
    limit_point,
    torus_point,
    verify_compatible,
)
from .scene import Scene, load_scene
from .report import render_text

__version__ = "0.1.0"

__all__ = [
    "AffineMonoid",
    "BoundExceeded",
    "CompatibilityReport",
    "Cone",
    "DemazureRoot",
    "Face",
    "FixedDivisor",
    "GradingClass",
    "GradingKind",
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
    "NotParabolic",
    "NotPointed",
    "RANK_LIMIT",
    "RankLimitExceeded",
    "ResourceError",
    "SaturationResult",
    "Scene",
    "SceneError",
    "ToricError",
    "ToricPoint",
    "classify",
    "dot",
    "ga_flow_point",
    "generates_full_lattice",
    "hilbert_basis",
    "integer_kernel",
    "is_root",
    "limit_point",
    "load_scene",
    "matrix_rank",
    "primitive",
    "render_text",
    "roots_in_box",
    "smallest_root_at_ray",
    "straightening_subtori",
    "torus_point",
    "verify_compatible",
    "__version__",
]
