"""delaylab: linear delay differential equations on product state spaces.

Solves u'(t) = A u(t) + Phi(u_t) two independent ways (method of steps
and the perturbation series of the block semigroup), assembles the
resolvent of the block delay operator in closed form, locates
characteristic roots, and certifies exponential stability through a
frequency-domain comparison of the delay term against the resolvent of A.
"""

from .errors import (
    BlowUpError,
    BudgetError,
    DelayLabError,
    NearSpectrumError,
    NoResultError,
    PreconditionError,
    ScenarioError,
)
from .evolution import (
    SpatialOperator,
    SystemModel,
    Trajectory,
    diagonal_operator,
    mild_residual,
    scalar_operator,
    solve_steps,
    t0_action,
    volterra_terms,
)
from .functional import (
    CantorKernel,
    DensityKernel,
    DiscreteDelays,
    apply,
    cantor_grid_weights,
    cantor_transform,
    char_matrix,
    char_norm_profile,
    single_delay,
    total_variation,
)
from .history import (
    COMPAT_TOL,
    DelayState,
    HistoryGrid,
    history_injection,
    lp_norm,
    nilpotent_shift,
    segment,
    state_norm,
)
from .scenarios import (
    dirichlet_lambda1,
    laplacian_dirichlet_1d,
    rd_rightmost_root,
    reaction_diffusion_scenario,
    scalar_dde,
    threshold_scan,
)
from .spectral import (
    CriterionProfile,
    FrequencyGrid,
    Region,
    RootReport,
    StabilityReport,
    count_roots_argument_principle,
    criterion_profile,
    decay_rate,
    find_roots,
    miyadera_estimate,
    random_compatible_state,
    resolvent_apply,
    resolvent_defect,
    shift_resolvent_history,
    stability_criterion,
)

__version__ = "0.1.0"
