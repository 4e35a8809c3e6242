"""Declarative scenario engine.

* :mod:`repro.scenarios.scenario` — :class:`Scenario`,
  :class:`TopologySpec`, :class:`WorkloadSpec`, :class:`CachingSpec`:
  what to run;
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`: how to run
  it, and the raw :class:`ExperimentResult` a run returns (a grid of
  runs is :func:`repro.api.sweep`);
* :mod:`repro.scenarios.presets` — named topologies/scenarios and the
  ``key=value`` spec parser behind the CLI's ``--scenario`` flag.
"""

from .executors import ExecutorError, ordered_map
from .scenario import (
    CachingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
    WorkloadSpec,
)
from .runner import (
    NAME_TEMPLATE,
    ExperimentResult,
    LinkUtilization,
    QueryOutcome,
    ScenarioRunner,
    build_workload_zone,
)
from .presets import (
    SCENARIOS,
    TOPOLOGIES,
    get_scenario,
    get_topology,
    scenario_from_spec,
)

__all__ = [
    "CachingSpec",
    "ExecutorError",
    "ExperimentResult",
    "LinkUtilization",
    "NAME_TEMPLATE",
    "QueryOutcome",
    "SCENARIOS",
    "Scenario",
    "ScenarioError",
    "ScenarioRunner",
    "TOPOLOGIES",
    "TopologySpec",
    "WorkloadSpec",
    "build_workload_zone",
    "get_topology",
    "ordered_map",
    "scenario_from_spec",
]
