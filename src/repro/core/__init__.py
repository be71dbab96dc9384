"""Core contribution: delegation graphs, TCBs, bottlenecks, hijacks, value.

This subpackage implements the analyses that constitute the paper's
contribution, on top of the DNS / network / topology substrates:

* :mod:`repro.core.delegation` -- building the delegation graph (the
  transitive closure of nameserver dependencies) of a domain name.
* :mod:`repro.core.tcb` -- the trusted computing base of a name and its
  vulnerability profile (Figures 2-6).
* :mod:`repro.core.mincut` -- bottleneck (min-cut) analysis determining the
  minimum set of servers whose compromise completely hijacks a name
  (Figure 7).
* :mod:`repro.core.hijack` -- hijack feasibility classification, attack-path
  extraction, and an end-to-end hijack simulator.
* :mod:`repro.core.value` -- nameserver value ranking: how many names each
  server controls (Figures 8-9).
* :mod:`repro.core.survey` -- the survey facade tying it all together.
* :mod:`repro.core.engine` -- the staged survey engine (discovery, closure,
  fingerprinting, analysis) with serial / process / socket backends.
* :mod:`repro.core.report` -- CDFs, summary statistics, and per-figure data
  series.
* :mod:`repro.core.snapshot` -- JSON persistence of survey results.
* :mod:`repro.core.delta` -- dirty-set computation for incremental
  re-surveys over a journalled world change.
"""

from repro.core.delegation import (
    ClosureIndex,
    DelegationGraph,
    DelegationGraphBuilder,
    TCBView,
)
from repro.core.tcb import TCBReport, compute_tcb_report
from repro.core.mincut import BottleneckAnalyzer, BottleneckResult
from repro.core.hijack import (
    HijackAnalyzer,
    HijackAssessment,
    HijackSimulator,
    HijackOutcome,
    AttackStep,
)
from repro.core.value import NameserverValueAnalyzer, ServerValue
from repro.core.survey import Survey, SurveyResults, NameRecord
from repro.core.engine import (
    EngineConfig,
    SurveyAggregator,
    SurveyEngine,
    WorkerContext,
)
from repro.core.report import (
    CDFSeries,
    summary_stats,
    average_by_group,
    rank_series,
)
from repro.core.delta import DeltaOutcome, DeltaStats, DirtyIndex
from repro.core.snapshot import save_results, load_results
from repro.core.timeline import (
    Timeline,
    TimelineSnapshot,
    load_timeline,
    run_churn_timeline,
    save_timeline,
)
from repro.core.availability import (
    AvailabilityAnalyzer,
    AvailabilityReport,
    availability_security_tradeoff,
)
from repro.core.dnssec_impact import (
    DNSSECDeployment,
    DNSSECImpactAnalyzer,
    DNSSECImpactReport,
    deploy_dnssec,
)

__all__ = [
    "ClosureIndex",
    "DelegationGraph",
    "DelegationGraphBuilder",
    "TCBView",
    "EngineConfig",
    "SurveyAggregator",
    "SurveyEngine",
    "WorkerContext",
    "TCBReport",
    "compute_tcb_report",
    "BottleneckAnalyzer",
    "BottleneckResult",
    "HijackAnalyzer",
    "HijackAssessment",
    "HijackSimulator",
    "HijackOutcome",
    "AttackStep",
    "NameserverValueAnalyzer",
    "ServerValue",
    "Survey",
    "SurveyResults",
    "NameRecord",
    "CDFSeries",
    "summary_stats",
    "average_by_group",
    "rank_series",
    "DeltaOutcome",
    "DeltaStats",
    "DirtyIndex",
    "save_results",
    "load_results",
    "Timeline",
    "TimelineSnapshot",
    "load_timeline",
    "run_churn_timeline",
    "save_timeline",
    "AvailabilityAnalyzer",
    "AvailabilityReport",
    "availability_security_tradeoff",
    "DNSSECDeployment",
    "DNSSECImpactAnalyzer",
    "DNSSECImpactReport",
    "deploy_dnssec",
]
