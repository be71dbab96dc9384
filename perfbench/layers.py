"""Which public functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<step>``; the layer prefix is the repro module
the function lives in (``delegation`` for core.delegation, ``resolver``
for dns.resolver, ...), and ``bench`` is the benchmark's own glue.  The
traced run wraps these callables only for the length of a traced
iteration (see :class:`tracer.Tracer`).
"""

from __future__ import annotations

from typing import Dict

from repro.core import engine, snapstore, timeline
from repro.core.atomic import AtomicFile
from repro.core.delegation import DelegationGraphBuilder
from repro.core.delta import DirtyIndex
from repro.core.mincut import BottleneckAnalyzer
from repro.core.passes import (AnalysisPass, AvailabilityPass,
                               DNSSECImpactPass, ValueRankingPass)
from repro.distrib import coordinator
from repro.dns.resolver import IterativeResolver
from repro.topology.churn import ChurnModel
from repro.topology.generator import InternetGenerator
from repro.vulns.fingerprint import Fingerprinter

#: Main-thread layers of the self-time ledger, in report order.
LEDGER_LAYERS = ("topology", "delegation", "resolver", "vulns", "tcb",
                 "mincut", "passes", "delta", "snapshot", "timeline",
                 "snapstore", "atomic", "distrib", "engine", "bench")


def _pass_span(step: str):
    return lambda pass_, *args, **kwargs: f"passes.{pass_.name}.{step}"


def install(tracer) -> None:
    """Wrap every traced function; undo with ``tracer.unwrap_all()``."""
    wrap = tracer.wrap
    wrap(InternetGenerator, "generate", "topology.generate")
    wrap(ChurnModel, "advance", "topology.advance")
    wrap(DelegationGraphBuilder, "tcb_view", "delegation.tcb_view")
    wrap(IterativeResolver, "zone_cut_chain", "resolver.zone_cut_chain")
    wrap(Fingerprinter, "fingerprint", "vulns.fingerprint")
    # The engine calls compute_tcb_report through its own module global.
    wrap(engine, "compute_tcb_report", "tcb.report")
    wrap(BottleneckAnalyzer, "analyze", "mincut.analyze")
    for cls in (AnalysisPass, AvailabilityPass, DNSSECImpactPass,
                ValueRankingPass):
        for step in ("prepare", "analyze", "finalize"):
            if step in cls.__dict__:
                wrap(cls, step, _pass_span(step))
    wrap(engine.SurveyEngine, "__init__", "engine.init")
    wrap(engine.SurveyEngine, "run", "engine.run")
    wrap(engine.SurveyEngine, "close", "engine.close")
    wrap(engine.SurveyEngine, "run_delta", "delta.run_delta")
    wrap(DirtyIndex, "__init__", "delta.dirty_index")
    wrap(DirtyIndex, "dirty_names", "delta.dirty_index")
    wrap(DelegationGraphBuilder, "apply_changes", "delta.invalidate")
    wrap(timeline, "diff_results", "snapshot.diff")
    wrap(timeline, "run_churn_timeline", "timeline.run")
    wrap(snapstore, "save_results_snapshot", "snapstore.save")
    wrap(snapstore, "open_results", "snapstore.open")
    wrap(snapstore.EpochStore, "load_epoch", "snapstore.open")
    wrap(snapstore.EpochStore, "append", "snapstore.append")
    wrap(AtomicFile, "commit", "atomic.publish")
    wrap(coordinator.LocalWorkerFleet, "start", "distrib.fleet_start")
    wrap(coordinator.LocalWorkerFleet, "stop", "distrib.fleet_stop")
    wrap(coordinator.ShardCoordinator, "__init__", "distrib.build")
    wrap(coordinator.ShardCoordinator, "run_shards", "distrib.run_shards")
    wrap(coordinator, "send_frame", "distrib.send_frame")
    wrap(coordinator, "recv_frame", "distrib.recv_frame")


#: name -> (unit, span, what): ``calls``/``total_s``/``self_s`` of a span.
SPAN_METRICS = {
    "topology.generate_s": ("s", "topology.generate", "total_s"),
    "topology.advance_s": ("s", "topology.advance", "total_s"),
    "delegation.tcb_view_calls": ("count", "delegation.tcb_view", "calls"),
    "delegation.tcb_view_s": ("s", "delegation.tcb_view", "total_s"),
    "delegation.closure_self_s": ("s", "delegation.tcb_view", "self_s"),
    "resolver.zone_cut_chain_calls": ("count", "resolver.zone_cut_chain",
                                      "calls"),
    "resolver.zone_cut_chain_s": ("s", "resolver.zone_cut_chain", "total_s"),
    "vulns.fingerprints": ("count", "vulns.fingerprint", "calls"),
    "vulns.fingerprint_s": ("s", "vulns.fingerprint", "total_s"),
    "tcb.reports": ("count", "tcb.report", "calls"),
    "tcb.report_s": ("s", "tcb.report", "total_s"),
    "mincut.analyze_calls": ("count", "mincut.analyze", "calls"),
    "mincut.analyze_s": ("s", "mincut.analyze", "total_s"),
    "passes.availability.calls": ("count", "passes.availability.analyze",
                                  "calls"),
    "passes.availability.analyze_s": ("s", "passes.availability.analyze",
                                      "total_s"),
    "passes.dnssec.calls": ("count", "passes.dnssec.analyze", "calls"),
    "passes.dnssec.analyze_s": ("s", "passes.dnssec.analyze", "total_s"),
    "delta.run_delta_s": ("s", "delta.run_delta", "total_s"),
    "delta.dirty_index_s": ("s", "delta.dirty_index", "total_s"),
    "delta.invalidate_s": ("s", "delta.invalidate", "total_s"),
    "snapshot.diff_s": ("s", "snapshot.diff", "total_s"),
    "timeline.reduce_s": ("s", "timeline.run", "self_s"),
    "snapstore.save_s": ("s", "snapstore.save", "total_s"),
    "snapstore.open_s": ("s", "snapstore.open", "total_s"),
    "snapstore.append_s": ("s", "snapstore.append", "total_s"),
    "atomic.publish_s": ("s", "atomic.publish", "total_s"),
    "distrib.build_s": ("s", "distrib.build", "total_s"),
    "distrib.run_shards_s": ("s", "distrib.run_shards", "total_s"),
    "distrib.recv_wait_s": ("s", "distrib.recv_frame", "total_s"),
    "engine.run_s": ("s", "engine.run", "total_s"),
    "bench.unattributed_s": ("s", "bench.iteration", "self_s"),
}

#: Work counters the workloads read from public state (not from spans).
COUNTER_METRICS = {
    "topology.events": "count",
    "netsim.queries_delivered": "count",
    "netsim.queries_failed": "count",
    "analysis.names": "count",
    "delta.dirty_names": "count",
    "delta.patched_names": "count",
    "delta.changed_names": "count",
    "snapstore.bytes_written": "B",
    "snapstore.records_hydrated": "count",
    "distrib.bytes_sent": "B",
    "distrib.bytes_received": "B",
    "distrib.retries": "count",
}

#: Metrics derived from several others (in :func:`iteration_layers`).
DERIVED_METRICS = {
    "netsim.queries_per_name": "ratio",
    "analysis.chains": "count",
    "analysis.chain_reuse_ratio": "ratio",
    "passes.finalize_s": "s",
    "delta.useful_ratio": "ratio",
    "distrib.frames": "count",
    "engine.unattributed_s": "s",
}

LEDGER_METRICS = {f"self.{layer}_s": "s" for layer in LEDGER_LAYERS}

RUN_METRICS = {
    "distrib.worker_peak_rss_mb": "MB",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {name: spec[0] for name, spec in SPAN_METRICS.items()}
    units.update(COUNTER_METRICS)
    units.update(DERIVED_METRICS)
    units.update(LEDGER_METRICS)
    units.update(RUN_METRICS)
    return units


def iteration_layers(tracer, spans, counters) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``spans`` are the iteration's spans; ``counters`` the work counters
    its workload read from public state.
    """
    totals = tracer.totals(spans)

    def get(span: str, what: str) -> float:
        return totals.get(span, {}).get(what, 0)

    values: Dict[str, float] = {}
    for name, (_unit, span, what) in SPAN_METRICS.items():
        values[name] = get(span, what)
    for name in COUNTER_METRICS:
        values[name] = counters.get(name, 0)
    names = values["analysis.names"]
    chains = values["tcb.reports"]
    values["netsim.queries_per_name"] = (
        values["netsim.queries_delivered"] / names if names else 0.0)
    values["analysis.chains"] = chains
    values["analysis.chain_reuse_ratio"] = names / chains if chains else 0.0
    values["passes.finalize_s"] = sum(
        row["total_s"] for span, row in totals.items()
        if span.startswith("passes.") and span.endswith(".finalize"))
    dirty = values["delta.dirty_names"]
    values["delta.useful_ratio"] = (
        values["delta.changed_names"] / dirty if dirty else 0.0)
    values["distrib.frames"] = (get("distrib.send_frame", "calls")
                                + get("distrib.recv_frame", "calls"))
    values["engine.unattributed_s"] = (get("engine.run", "self_s")
                                       + get("delta.run_delta", "self_s"))
    ledger = {layer: 0.0 for layer in LEDGER_LAYERS}
    main = [span for span in spans if tracer.on_main_thread(span)]
    for span in main:
        layer = span.name.split(".", 1)[0]
        ledger[layer] = ledger.get(layer, 0.0) + span.self_time
    for layer, seconds in ledger.items():
        values[f"self.{layer}_s"] = seconds
    values["trace.wall_s"] = sum(span.duration for span in main
                                 if span.parent is None)
    values["trace.self_sum_s"] = sum(ledger.values())
    values["trace.spans"] = len(spans)
    return values
