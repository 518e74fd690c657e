"""gorom: goal-oriented reduced-order models for affine parametric systems.

The package covers the full offline/online workflow for estimating a
vector-valued variable of interest s(xi) = L(xi) u(xi) of a
parameter-dependent linear system A(xi) u(xi) = b(xi) with affine
parameter dependence:

* desk-scale generated problems and truth solves (:mod:`gorom.problems`),
* Gram-orthonormal reduced bases (:mod:`gorom.spaces`),
* primal, dual, primal-dual and saddle projections plus the cached online
  systems (:mod:`gorom.projectors`),
* quasi-optimality constants (:mod:`gorom.constants`),
* certified and surrogate error estimates with effectivity statistics
  (:mod:`gorom.estimators`),
* interpolated operator inverses for test spaces and surrogate estimates
  (:mod:`gorom.preconditioner`),
* greedy space construction with cost-annotated traces (:mod:`gorom.greedy`),
* bundle I/O (:mod:`gorom.bundle`) and a command-line front end
  (:mod:`gorom.cli`).
"""

from .affine import AffineForm, CoefficientFn, ParameterDomain, assemble
from .bundle import load_bundle, store_bundle
from .constants import (
    ConstantsReport,
    compute_constants,
    delta_L,
    delta_VW,
    infsup_alpha,
)
from .estimators import (
    EffectivityReport,
    EstimateRecord,
    alpha_min_theta,
    effectivity_report,
    estimate_error,
    estimate_preconditioned,
    estimate_primal_dual,
    estimate_saddle,
    select_output_direction,
)
from .exceptions import (
    BundleFormatError,
    DegenerateTestSpaceError,
    DomainError,
    FactorizationError,
    GoromError,
    GreedyAborted,
    ReducedSolveError,
    SolverError,
    UnsupportedModelError,
)
from .greedy import (
    GreedyConfig,
    GreedyResult,
    GreedyTrace,
    argmax_delta,
    run_greedy,
)
from .model import Factorization, FullOrderModel, dual_norm_sq
from .preconditioner import InverseInterpolant
from .problems import (
    ProblemConfig,
    compliant_variant,
    dual_truth_solve,
    make_advection_diffusion_problem,
    make_diffusion_problem,
    make_problem,
    sample_parameters,
    truth_solve,
)
from .projectors import (
    OutputEstimate,
    ReducedCache,
    build_test_space,
    dual_only_solve,
    orthogonal_project,
    petrov_galerkin_solve,
    primal_dual_solve,
    saddle_general_solve,
    saddle_spd_solve,
)
from .spaces import Basis, union_basis

__version__ = "0.1.0"
