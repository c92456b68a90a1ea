"""Constrained Nevanlinna-Pick interpolation on the unit disk.

Decides solvability of interpolation problems whose interpolants are
restricted to ``C + B H^inf`` with sup-norm at most one (``B`` a finite
Blaschke product; default the double zero at the origin, i.e. vanishing
derivative at 0), describes solution sets as matrix balls, computes
interpolation bodies, and, for scalar data, constructs and verifies
actual interpolants.
"""

from .errors import (
    CnpError,
    DegenerateDataError,
    DomainError,
    IllConditionedError,
    NotHermitianError,
    NotPsdError,
    ProblemFileError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_part,
    is_psd,
    operator_norm,
)
from .pick import (
    BlaschkeSpec,
    DataSet,
    PickBundle,
    assemble_bundle,
    constrained_pick,
    constrained_pick_cf,
    jet_matrices,
    pick_matrix,
)
from .kernels import (
    GrassmannParam,
    ScanReport,
    grassmann_sample,
    kernel_eval,
    kernel_gram,
    lambda_criterion_matrix,
    necessity_form,
    necessity_form_matrix,
    necessity_scan,
)
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNDETERMINED,
    Disk,
    FeasReport,
    MatrixBall,
    ball_membership,
    ball_sample,
    matrix_ball,
    one_point_disk,
    pencil_build,
    search_lambda,
    search_x_grid,
)
from .body import BodyReport, body_disk_x, body_membership, body_union, unconstrained_body
from .interpolant import (
    ResidualReport,
    SchurChain,
    assemble_constrained,
    chain_eval,
    chain_from_json,
    chain_to_json,
    construct_interpolant,
    derivative_at,
    generate_feasible,
    np_central_solve,
    schur_reduce_constrained,
    verify_interpolant,
)
from .problemfile import ProblemFile, parse_problem, parse_problem_text, serialize_problem

__version__ = "0.1.0"
