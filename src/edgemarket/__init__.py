"""Competitive contract-menu market for edge AI service operators.

Layers, bottom up: `queueing` (M/M/c tails and the latency-violation bound),
`contracts` (screening menus for one operator), `market` (the mixed matching
fixed point across operators), `benchmarks` (one-shot mechanisms for
comparison), `scenario`/`experiments` (configuration and sweeps), `cli`.
"""

from edgemarket.contracts import (
    ContractMenu,
    MenuSolve,
    OperatorSpec,
    StageResources,
    TaskSpec,
    UserTypePopulation,
    check_ic_ir,
    menu_grid_gap,
    menu_objective,
    operator_utility,
    optimize_menu,
    optimize_menus,
    recover_rewards,
    social_welfare,
    user_utility,
    violation_profile,
)
from edgemarket.errors import DomainError, SetupError
from edgemarket.market import (
    MarketOutcome,
    MixedMatching,
    ShadowPrices,
    capacities,
    effective_capacity,
    project_matching,
    run_fixed_point,
    verify_selection_equilibrium,
)
from edgemarket.queueing import (
    StageParams,
    ViolationModel,
    ViolationProfile,
    bound_dominance_margin,
    chernoff_eta,
    chernoff_g,
    erlang_c,
    sample_sojourn,
    stage_rate,
    violation_prob,
)
from edgemarket.scenario import (
    Scenario,
    SolverConfig,
    default_scenario,
    dirichlet_composition,
    load_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ContractMenu",
    "DomainError",
    "MarketOutcome",
    "MenuSolve",
    "MixedMatching",
    "OperatorSpec",
    "Scenario",
    "SetupError",
    "ShadowPrices",
    "SolverConfig",
    "StageParams",
    "StageResources",
    "TaskSpec",
    "UserTypePopulation",
    "ViolationModel",
    "ViolationProfile",
    "bound_dominance_margin",
    "capacities",
    "check_ic_ir",
    "chernoff_eta",
    "chernoff_g",
    "default_scenario",
    "dirichlet_composition",
    "effective_capacity",
    "erlang_c",
    "load_scenario",
    "menu_grid_gap",
    "menu_objective",
    "operator_utility",
    "optimize_menu",
    "optimize_menus",
    "project_matching",
    "recover_rewards",
    "run_fixed_point",
    "sample_sojourn",
    "social_welfare",
    "stage_rate",
    "user_utility",
    "verify_selection_equilibrium",
    "violation_prob",
    "violation_profile",
]
