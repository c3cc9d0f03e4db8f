"""Competitive contract-menu market for edge AI service operators.

Layers, bottom up: `queueing` (M/M/c tails and the latency-violation bound),
`contracts` (screening menus for one operator), `market` (the mixed matching
fixed point across operators), `benchmarks` (one-shot mechanisms for
comparison), `scenario`/`experiments` (configuration and sweeps), `cli`.
"""

from edgemarket.contracts import (
    ContractItem,
    ContractMenu,
    OperatorSpec,
    StageResources,
    TaskSpec,
    UserTypePopulation,
    check_feasibility,
    check_ic_ir,
    menu_objective,
    operator_utility,
    optimize_menu,
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
    effective_capacity,
    project_matching,
    run_fixed_point,
    verify_selection_equilibrium,
)
from edgemarket.queueing import (
    StageParams,
    ViolationModel,
    ViolationProfile,
    chernoff_eta,
    chernoff_g,
    erlang_c,
    sample_sojourn,
    stage_rate,
    stage_tail,
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
    "ContractItem",
    "ContractMenu",
    "DomainError",
    "MarketOutcome",
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
    "check_feasibility",
    "check_ic_ir",
    "chernoff_eta",
    "chernoff_g",
    "default_scenario",
    "dirichlet_composition",
    "effective_capacity",
    "erlang_c",
    "load_scenario",
    "menu_objective",
    "operator_utility",
    "optimize_menu",
    "project_matching",
    "recover_rewards",
    "run_fixed_point",
    "sample_sojourn",
    "social_welfare",
    "stage_rate",
    "stage_tail",
    "user_utility",
    "verify_selection_equilibrium",
    "violation_prob",
    "violation_profile",
]
