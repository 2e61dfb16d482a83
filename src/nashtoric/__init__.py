"""Nash blowups of affine toric varieties over arbitrary characteristic,
computed combinatorially from semigroup data."""

from .errors import (
    CharacteristicError,
    DimensionError,
    FormatError,
    MalformedInputError,
    NotFullDimensionalError,
    NotFullLatticeError,
    NotPointedError,
    ToricError,
)
from .linalg import (
    det,
    group_is_full_lattice,
    hermite_basis,
    kernel_basis,
    smith_normal_form,
    validate_characteristic,
)
from .lp import rational_feasible
from .cones import (
    Cone,
    HilbertBasis,
    hilbert_basis,
    parallelepiped_points,
    polyhedron_vertices,
    polyhedron_vertices_and_facets,
)
from .semigroups import AffineSemigroup
from .blowup import (
    BlowupChart,
    MonomialIdealExponents,
    NewtonPolyhedron,
    blowup_charts,
    is_trivial_step,
    log_jacobian_ideal,
    newton_polyhedron,
)
from .resolve import (
    DEPTH_CAPPED,
    EXPANDED,
    SMOOTH_LEAF,
    TRIVIAL_STALL,
    CharacteristicComparison,
    ResolutionNode,
    ResolutionTree,
    SuiteSummary,
    compare_characteristics,
    resolve,
    surface_termination_suite,
)
from .io import ProblemSpec, parse_input, serialize

__version__ = "0.1.0"

__all__ = [
    "ToricError",
    "MalformedInputError",
    "DimensionError",
    "CharacteristicError",
    "NotPointedError",
    "NotFullDimensionalError",
    "NotFullLatticeError",
    "FormatError",
    "det",
    "smith_normal_form",
    "kernel_basis",
    "hermite_basis",
    "group_is_full_lattice",
    "validate_characteristic",
    "rational_feasible",
    "Cone",
    "HilbertBasis",
    "parallelepiped_points",
    "hilbert_basis",
    "polyhedron_vertices",
    "polyhedron_vertices_and_facets",
    "AffineSemigroup",
    "MonomialIdealExponents",
    "log_jacobian_ideal",
    "NewtonPolyhedron",
    "newton_polyhedron",
    "BlowupChart",
    "blowup_charts",
    "is_trivial_step",
    "SMOOTH_LEAF",
    "EXPANDED",
    "TRIVIAL_STALL",
    "DEPTH_CAPPED",
    "ResolutionNode",
    "ResolutionTree",
    "resolve",
    "CharacteristicComparison",
    "compare_characteristics",
    "SuiteSummary",
    "surface_termination_suite",
    "ProblemSpec",
    "parse_input",
    "serialize",
    "__version__",
]
