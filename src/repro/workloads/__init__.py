"""Workload generators and canned scenarios for experiments."""

from repro.workloads.generators import (
    LinkageWorkload,
    SensorCorpus,
    dao_proposal_load,
    evaluate_linkage,
    linkage_workload,
    sensor_corpus,
)
from repro.workloads.load import (
    LoadRunResult,
    agent_address,
    run_load,
    synthetic_transfer,
)
from repro.workloads.observability import (
    ObservabilityRunResult,
    run_observability_scenario,
)
from repro.workloads.scenarios import (
    GovernanceStressResult,
    MarketSeasonResult,
    build_flat_dao,
    build_modular_federation,
    run_governance_stress,
    run_market_season,
)

__all__ = [
    "LinkageWorkload",
    "SensorCorpus",
    "dao_proposal_load",
    "evaluate_linkage",
    "linkage_workload",
    "sensor_corpus",
    "GovernanceStressResult",
    "LoadRunResult",
    "MarketSeasonResult",
    "agent_address",
    "run_load",
    "synthetic_transfer",
    "ObservabilityRunResult",
    "run_observability_scenario",
    "build_flat_dao",
    "build_modular_federation",
    "run_governance_stress",
    "run_market_season",
]
