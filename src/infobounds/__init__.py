"""Fisher-information bounds on mutual information, with brute-force oracles.

The package evaluates upper bounds on the mutual information I(x, phi) in
terms of the Fisher information F(phi), the Bayesian quadratic-cost lower
bounds they imply, and their noisy quantum-metrology corollaries -- and
checks every one of them against exact quadrature oracles.
"""

from .bounds import (
    BoundReport,
    all_bounds,
    efroimovich_mi_bound,
    entropy_mse_floor,
    gaussian_prior_mse_bounds,
    mi_bound_finite_support,
    mi_bound_general_prior,
    mi_bound_variational,
    mse_bound_finite_support,
    mse_bound_general_prior,
    oracle_margin,
    rectangle_prior_mse_bound,
    van_trees,
)
from .mi_oracle import (
    BudgetError,
    MleStudyPoint,
    OracleResult,
    bayes_quadratic_cost,
    mle_convergence_study,
    mutual_information,
    repeat_model,
)
from .numerics import (
    NumericError,
    ParameterGrid,
    central_difference,
    integrate,
    simpson_weights,
    tricomi_u,
)
from .quantum_metrology import (
    DensityMatrix,
    PhaseChannelFamily,
    Povm,
    asymptotic_fi_cap,
    channel_outcome_model,
    classical_fi_of_povm,
    finite_n_fi_cap,
    mi_cap,
    noon_family,
    noon_outcome_model,
    plus_minus_povm,
    qfi,
    random_povm,
    transition_sweep,
)
from .random_models import random_joint_model
from .stat_model import (
    ConditionalModel,
    FisherProfile,
    JointModel,
    PriorDensity,
    average_fisher,
    cos2_model,
    cosine_plateau,
    fisher_information,
    jeffreys_length,
)

__version__ = "0.1.0"
