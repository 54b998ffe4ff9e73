"""Piecewise-polynomial generalized-function calculus on a bounded grid.

The package builds a finite, fully computable calculus for generalized
functions: a partition of ``[-beta, beta]`` into cells carries per-cell
orthonormal polynomial bases; point evaluation is represented inside the
space by delta members; integrable functions embed by orthogonal projection;
and a generalized derivative with node-jump corrections satisfies exact
integration-by-parts and fundamental-theorem identities.  Distributions
presented as iterated derivatives of C1 functions embed through the same
machinery, and refinement ladders measure how all of it converges as the
grid grows.
"""

from .basis import (
    BasisPair,
    basis_pair,
    default_interpolation_points,
    delta,
    delta_sided,
)
from .calculus import (
    DerivOperator,
    derivative_operator,
    ftc_defect,
    ftc_piecewise_defect,
    ibp_c1_defect,
    ibp_defect,
    ibp_piecewise_defect,
    integrate,
    integrate_product,
    naive_ibp_defect,
)
from .distributions import DistributionSpec, embed, pair, pair_exact_member
from .errors import (
    IndependenceError,
    InsufficientDataError,
    InvalidArgumentError,
    PreconditionError,
    QuadratureError,
    UltracalcError,
)
from .expr import parse_expression
from .grid import Grid, PointClass, PointKind
from .projection import (
    FunctionHandle,
    integral_against_member,
    l2_error,
    project,
    project_via_basis,
)
from .refinement import Ladder, ObservationRow, refine
from .space import SplittedBasis, Space, Ultrafunction

__version__ = "0.1.0"

__all__ = [
    "BasisPair",
    "DerivOperator",
    "DistributionSpec",
    "FunctionHandle",
    "Grid",
    "IndependenceError",
    "InsufficientDataError",
    "InvalidArgumentError",
    "Ladder",
    "ObservationRow",
    "PointClass",
    "PointKind",
    "PreconditionError",
    "QuadratureError",
    "SplittedBasis",
    "Space",
    "Ultrafunction",
    "UltracalcError",
    "basis_pair",
    "default_interpolation_points",
    "delta",
    "delta_sided",
    "derivative_operator",
    "embed",
    "ftc_defect",
    "ftc_piecewise_defect",
    "ibp_c1_defect",
    "ibp_defect",
    "ibp_piecewise_defect",
    "integral_against_member",
    "integrate",
    "integrate_product",
    "l2_error",
    "naive_ibp_defect",
    "pair",
    "pair_exact_member",
    "parse_expression",
    "project",
    "project_via_basis",
    "refine",
]
