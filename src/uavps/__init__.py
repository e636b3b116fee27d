"""Profit planning for UAV-provided services.

Three planning layers, solved back to front: dynamic pricing of a
capacity-limited service over a hovering window (``pricing``), splitting one
vehicle's energy between hovering time and service capacity (``allocation``),
and assigning a fleet to heterogeneous hotspots (``deployment``). Every
expected-profit number is cross-checkable against the Monte-Carlo harness in
``simulator`` and the full-information benchmark in ``benchmark``.
"""

from .allocation import (AllocationDecision, Regime, allocate_continuous,
                         allocate_discrete, capacity_argmax,
                         high_regime_threshold, low_regime_threshold)
from .benchmark import complete_info_profit, profit_ratio_curve, variance_sweep
from .deployment import (BestHotspot, DeploymentPlan, DeploymentProfile,
                         FleetConfig, ForkingCheck, Hotspot, RouteInstance,
                         RouteResult, best_single_hotspot, compositions,
                         forking_condition, hotspot_profit, load_hotspots,
                         optimal_deployment, optimal_deployment_continuous,
                         pooled_series_max, route_oracle)
from .pricing import (PriceSchedule, ProfitTable, build_pricing,
                      continuous_profit_numeric, evaluate_schedule,
                      expected_profit_closed_form, log_capacity_series,
                      price_closed_form, profit_step, schedule_csv_rows,
                      solve_stage_price)
from .simulator import (RegretReport, SimulationReport, simulate_continuous,
                        simulate_discrete, simulate_policy_regret)
from .valuations import ValuationModel, check_regularity

__version__ = "0.1.0"

__all__ = [
    "AllocationDecision", "BestHotspot", "DeploymentPlan", "DeploymentProfile",
    "FleetConfig", "ForkingCheck", "Hotspot", "PriceSchedule", "ProfitTable",
    "Regime", "RegretReport", "RouteInstance", "RouteResult",
    "SimulationReport", "ValuationModel",
    "allocate_continuous", "allocate_discrete", "best_single_hotspot",
    "build_pricing", "capacity_argmax", "check_regularity",
    "complete_info_profit", "compositions",
    "continuous_profit_numeric", "evaluate_schedule",
    "expected_profit_closed_form", "forking_condition", "high_regime_threshold",
    "hotspot_profit", "load_hotspots", "log_capacity_series",
    "low_regime_threshold", "optimal_deployment",
    "optimal_deployment_continuous", "pooled_series_max", "price_closed_form",
    "profit_ratio_curve", "profit_step", "route_oracle", "schedule_csv_rows",
    "simulate_continuous", "simulate_discrete", "simulate_policy_regret",
    "solve_stage_price", "variance_sweep",
]
