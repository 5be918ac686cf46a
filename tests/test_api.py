"""The public API: the names ``infobounds`` exports, pinned.

Adding or removing an export changes this list, so any growth or narrowing
of the API shows in the diff of this file.
"""

import importlib
import types

import infobounds

EXPORTS = [
    "BoundReport",
    "BudgetError",
    "ConditionalModel",
    "DensityMatrix",
    "FisherProfile",
    "JointModel",
    "MleStudyPoint",
    "NumericError",
    "OracleResult",
    "ParameterGrid",
    "PhaseChannelFamily",
    "Povm",
    "PriorDensity",
    "all_bounds",
    "asymptotic_fi_cap",
    "average_fisher",
    "bayes_quadratic_cost",
    "central_difference",
    "channel_outcome_model",
    "classical_fi_of_povm",
    "cos2_model",
    "cosine_plateau",
    "efroimovich_mi_bound",
    "entropy_mse_floor",
    "finite_n_fi_cap",
    "fisher_information",
    "gaussian_prior_mse_bounds",
    "integrate",
    "jeffreys_length",
    "mi_bound_finite_support",
    "mi_bound_general_prior",
    "mi_bound_variational",
    "mi_cap",
    "mle_convergence_study",
    "mse_bound_finite_support",
    "mse_bound_general_prior",
    "mutual_information",
    "noon_family",
    "noon_outcome_model",
    "oracle_margin",
    "plus_minus_povm",
    "qfi",
    "random_joint_model",
    "random_povm",
    "rectangle_prior_mse_bound",
    "repeat_model",
    "simpson_weights",
    "transition_sweep",
    "tricomi_u",
    "van_trees",
]

# Public names that nothing in src/, demos/ or bench/ reads, each with the reason it
# stays; tests/test_source.py fails on a public name without a caller that is not
# listed here, and on a listed name that is gone or has a caller now.
KEPT_WITHOUT_CALLER: dict[str, str] = {}


def test_exported_names_are_pinned():
    exported = sorted(name for name, value in vars(infobounds).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == EXPORTS


def test_each_export_is_public_in_its_module():
    for name in EXPORTS:
        home = importlib.import_module(getattr(infobounds, name).__module__)
        assert name in home.__all__, f"{name} is exported but not in {home.__name__}.__all__"
