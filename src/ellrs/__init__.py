"""ellrs: elliptic Ruijsenaars-Schneider toolkit.

Theta functions with rational characteristics, intertwining-vector matrices,
Belavin's elliptic R-matrix, factorized Lax operators, Backlund maps and
their discrete-time iteration, plus a randomized two-sided verification
harness for every identity the construction rests on.
"""

from .belavin import RTensor, r_matrix, ybe_residual
from .elliptic import (
    Characteristic,
    ModelParams,
    TorusParams,
    dedekind_eta,
    lattice_distance,
    lattice_reduce,
    phi_kernel,
    theta_band,
    theta_char,
    theta_char_deriv,
    theta_level,
    theta_odd,
    theta_odd_deriv,
    theta_odd_pair,
    theta_table,
    zeta_log,
)
from .errors import (
    DegenerateSolution,
    DegenerateWeights,
    EllrsError,
    NearSingular,
    NoConvergence,
    NonconvergentSeries,
    PathThroughZero,
    PoleAtLatticePoint,
)
from .flow import (
    SolverConfig,
    StepState,
    Trajectory,
    backlund_commutativity_residual,
    discrete_rs_residual,
    nearest_assignment,
    solve_next,
    step,
    trajectory_residuals,
)
from .identities import IdentityReport, SuiteConfig, run_all
from .intertwiners import (
    IntertwinerMatrix,
    WeightVector,
    cross_sum_residual,
    det_residual,
    phi_inverse,
    phi_matrix,
    phi_tilde0,
)
from .lax import (
    BacklundStep,
    PhaseConfig,
    backlund_C,
    backlund_t,
    backlund_ttilde,
    eigenvector_residual,
    generating_function,
    kernel_residual,
    ks_identity_residual,
    lax_classical,
    lax_equation_residual,
    lax_gauge,
    m_matrix,
    make_backlund_step,
    s_mu,
)

__version__ = "0.1.0"
