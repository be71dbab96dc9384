"""The benchmark's three workloads, their output checks and work counters.

Every workload is a closed loop driven from one process: an iteration
builds a fresh seeded world, runs the workload to completion, and only
then does the next iteration start.  An iteration has a measured part
(``work``) and an unmeasured part (``check``) that compares the outputs
against independent reads of them.

All three use the bench-scale world of ``benchmarks/conftest.py``
(``BENCH_CONFIG``, 2,209 names at its default seed).  ``cold_survey`` and
``socket_survey`` take the world seed from ``--seed``: across world seeds
their work varies little (simulated queries by about 2%, snapshot bytes
by about 5%).  ``churn_store`` always uses the default world and takes its
event seed from ``--churn-seed`` instead: churn work is heavy-tailed (one
server death can dirty 700 names), so across 8 churn seeds its store size
and median dirty count varied by 30% and 25% (quartile distance over
median), more than any bound the benchmark could keep.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.core import snapstore, timeline
from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.passes import build_passes
from repro.core.snapstore import EpochStore
from repro.distrib.coordinator import LocalWorkerFleet
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

#: ``BENCH_CONFIG`` of benchmarks/conftest.py, minus its seed.
WORLD = dict(sld_count=1200, directory_name_count=2000, university_count=110,
             hosting_provider_count=32, isp_count=24, alexa_count=300)
#: BENCH_CONFIG's own seed: the churn_store world, whatever ``--seed`` is.
DEFAULT_SEED = 20040722

COLD_PASSES = ("availability", "dnssec")
CHURN_PASSES = ("availability", "dnssec:fraction=0.1")
CHURN_RATES = ("transfer=1,death=0.5,upgrade=2,downgrade=0.5,region=1,"
               "dnssec=0.05")
CHURN_EPOCHS = 10
SOCKET_WORKERS = 2
#: Lazy rows compared against the in-memory records per snapshot check.
SAMPLED_ROWS = 64

WHY = {
    "cold_survey": "every name goes cold through discovery, closure, "
                   "fingerprinting, analysis and both passes, then one "
                   "binary snapshot commit; no delta or wire code runs",
    "churn_store": "after the cold baseline each epoch re-surveys only the "
                   "dirty names, so world mutation, the delta re-survey, "
                   "reduce and per-epoch store appends dominate",
    "socket_survey": "the only workload where distrib runs: fleet spawn, "
                     "worker BUILD, wire frames, and a result that waits "
                     "for the slowest of 2 shards",
}


def world_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, **WORLD)


def parameters(workload: str, seed: int, churn_seed: int) -> Dict[str, object]:
    """The workload's parameters, recorded in every result."""
    if workload == "churn_store":
        seed = DEFAULT_SEED
    params: Dict[str, object] = {"world": dict(WORLD, seed=seed)}
    if workload == "cold_survey":
        params.update(backend="serial", passes=list(COLD_PASSES))
    elif workload == "churn_store":
        params.update(backend="serial", passes=list(CHURN_PASSES),
                      rates=CHURN_RATES, epochs=CHURN_EPOCHS,
                      churn_seed=churn_seed, fsync=True)
    else:
        params.update(backend="socket", passes=[], workers=SOCKET_WORKERS)
    return params


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checks:
    """Counts output checks; every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed: List[str] = []

    def expect(self, condition: bool, what: str) -> None:
        self.attempted += 1
        if not condition:
            self.failed.append(what)


class Iteration:
    """What one iteration measured, counted and checked."""

    def __init__(self):
        self.setup_s = 0.0
        #: Engine run start until the (first) durable snapshot commit.
        self.survey_s = 0.0
        self.names = 0
        #: Commit cycles: churn epochs, or one whole cold survey cycle.
        self.cycles_s: List[float] = []
        #: The whole ``work`` call, timed by its caller.
        self.wall_s = 0.0
        self.stored_bytes = 0
        #: Operations other than output checks (names, epochs, orders).
        self.ops = 0
        self.counters: Dict[str, float] = {}
        #: Digest of the committed bytes; every iteration must match.
        self.artifact: Optional[str] = None
        #: Outputs handed from ``work`` to ``check``, then dropped.
        self.outputs: tuple = ()


def _check_snapshot(checks: Checks, rng: random.Random, label: str,
                    names: int, iteration: Iteration) -> None:
    """Checks shared by the workloads that commit one snapshot."""
    results, lazy, headline, path = iteration.outputs[:4]
    checks.expect(iteration.names == names,
                  f"{label}: surveyed {iteration.names} of {names} names")
    try:
        lazy.verify()
        checks.expect(True, "")
    except snapstore.SnapshotFormatError as error:
        checks.expect(False, f"{label}: snapshot verify: {error}")
    rows = len(results.records)
    sampled = sorted(rng.sample(range(rows), min(SAMPLED_ROWS, rows)))
    checks.expect(len(lazy.records) == rows and all(
        lazy.records[row] == results.records[row] for row in sampled),
        f"{label}: sampled lazy rows differ from the in-memory records")
    checks.expect(headline == results.headline(),
                  f"{label}: lazy headline differs")
    iteration.artifact = sha256_of(path)


class EngineInitProbe:
    """Times ``SurveyEngine.__init__`` where the program constructs it.

    ``run_churn_timeline`` builds its engine itself; the probe is the one
    wrapper the untraced churn run carries, so its set-up time includes
    the engine construction (DNSSEC deployment happens there).
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self._original = SurveyEngine.__dict__["__init__"]

    def __enter__(self) -> "EngineInitProbe":
        original = self._original
        spans = self.spans

        def probed(engine, *args, **kwargs):
            started = time.perf_counter()
            original(engine, *args, **kwargs)
            spans.append((started, time.perf_counter()))

        SurveyEngine.__init__ = probed
        return self

    def __exit__(self, *exc_info) -> None:
        SurveyEngine.__init__ = self._original


class RecordingEpochStore(EpochStore):
    """An epoch store that keeps the last results it was handed."""

    last_results = None

    def append(self, results, previous=None, dirty=None):
        self.last_results = results
        return super().append(results, previous=previous, dirty=dirty)


class Workload:
    """Base: a seeded closed loop of iterations over fresh worlds."""

    name = ""
    #: Largest worker ``ru_maxrss`` (socket_survey spawns the only workers).
    worker_peak_rss_mb = 0.0

    def __init__(self, seed: int, churn_seed: int, workdir):
        self.seed = seed
        self.churn_seed = churn_seed
        self.workdir = workdir
        self.checks = Checks()
        self.rng = random.Random(f"perfbench-{seed}")
        self.first: Optional[Iteration] = None
        self.world_names = 0
        self.world_servers = 0

    def _generate(self):
        internet = InternetGenerator(world_config(self.seed)).generate()
        self.world_names = len(internet.directory.entries())
        self.world_servers = internet.server_count()
        return internet

    def work(self, index: int) -> Iteration:
        raise NotImplementedError

    def check(self, index: int, iteration: Iteration) -> None:
        """Compare this iteration's outputs and counters with the first's."""
        if self.first is None:
            self.first = iteration
            return
        self.checks.expect(iteration.artifact == self.first.artifact,
                           f"iteration {index}: output bytes differ from "
                           f"iteration 0")
        self.checks.expect(iteration.counters == self.first.counters,
                           f"iteration {index}: work counters differ from "
                           f"iteration 0")

    def setup_only(self) -> float:
        """One extra set-up (world + engine) whose product is discarded."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the loop."""


class ColdSurvey(Workload):
    name = "cold_survey"

    def _engine(self, internet) -> SurveyEngine:
        return SurveyEngine(internet, config=EngineConfig(
            popular_count=WORLD["alexa_count"], passes=list(COLD_PASSES)))

    def setup_only(self) -> float:
        started = time.perf_counter()
        self._engine(self._generate()).close()
        return time.perf_counter() - started

    def work(self, index: int) -> Iteration:
        it = Iteration()
        path = self.workdir / f"cold-{index}.rsnap"
        started = time.perf_counter()
        internet = self._generate()
        engine = self._engine(internet)
        ready = time.perf_counter()
        try:
            results = engine.run()
            snapstore.save_results_snapshot(results, path)
            committed = time.perf_counter()
            lazy = snapstore.open_results(path)
            headline = lazy.headline()
            done = time.perf_counter()
        finally:
            engine.close()
        it.setup_s = ready - started
        it.survey_s = committed - ready
        it.cycles_s = [done - ready]
        it.names = len(results.records)
        it.ops = it.names
        it.stored_bytes = path.stat().st_size
        stats = internet.network.stats
        it.counters = {
            "netsim.queries_delivered": stats.queries_delivered,
            "netsim.queries_failed": stats.queries_failed,
            "snapstore.bytes_written": it.stored_bytes,
            "snapstore.records_hydrated": lazy.hydrated_record_count,
            "analysis.names": it.names,
        }
        it.outputs = (results, lazy, headline, path)
        return it

    def check(self, index: int, iteration: Iteration) -> None:
        _check_snapshot(self.checks, self.rng, f"{self.name} iteration "
                        f"{index}", self.world_names, iteration)
        path = iteration.outputs[3]
        iteration.outputs = ()
        super().check(index, iteration)
        if index > 0:
            path.unlink()


class ChurnStore(Workload):
    name = "churn_store"

    def __init__(self, seed: int, churn_seed: int, workdir):
        # Fixed world, seeded events: see the module docstring.
        super().__init__(DEFAULT_SEED, churn_seed, workdir)

    def _model(self, internet) -> ChurnModel:
        fraction, dnssec_seed, sign_tlds = \
            timeline.dnssec_spec_options(list(CHURN_PASSES))
        return ChurnModel(internet, ChurnRates.parse(CHURN_RATES),
                          seed=self.churn_seed, initial_dnssec=fraction,
                          dnssec_seed=dnssec_seed,
                          dnssec_sign_tlds=sign_tlds)

    def setup_only(self) -> float:
        started = time.perf_counter()
        internet = self._generate()
        self._model(internet)
        SurveyEngine(internet, config=EngineConfig(
            popular_count=WORLD["alexa_count"],
            passes=build_passes(list(CHURN_PASSES)))).close()
        return time.perf_counter() - started

    def work(self, index: int) -> Iteration:
        it = Iteration()
        store = RecordingEpochStore(self.workdir / f"churn-{index}")
        marks: List[float] = []
        started = time.perf_counter()
        internet = self._generate()
        model = self._model(internet)
        generated = time.perf_counter()
        with EngineInitProbe() as probe:
            result = timeline.run_churn_timeline(
                internet, model, epochs=CHURN_EPOCHS, backend="serial",
                passes=list(CHURN_PASSES),
                popular_count=WORLD["alexa_count"], store=store,
                progress=lambda epoch, row: marks.append(
                    time.perf_counter()))
        init_started, init_done = probe.spans[0]
        it.setup_s = (generated - started) + (init_done - init_started)
        # The baseline survey (epoch 0) ends with its store append, right
        # before the first progress callback.
        it.survey_s = marks[0] - init_done
        it.cycles_s = [after - before for before, after in
                       zip(marks, marks[1:])]
        rows = result.snapshots
        it.names = rows[0].total_names
        it.ops = it.names + len(rows) - 1
        it.stored_bytes = store.total_bytes()
        stats = internet.network.stats
        churned = rows[1:]
        dirty = sum(row.dirty_names for row in churned)
        changed = sum(row.changed_names + row.added_names + row.removed_names
                      for row in churned)
        fractions = [row.dirty_fraction for row in churned]
        it.counters = {
            "netsim.queries_delivered": stats.queries_delivered,
            "netsim.queries_failed": stats.queries_failed,
            "snapstore.bytes_written": it.stored_bytes,
            "topology.events": sum(row.events for row in churned),
            "delta.dirty_names": dirty,
            "delta.patched_names": sum(row.patched_names for row in churned),
            "delta.changed_names": changed,
            "analysis.names": it.names + dirty,
            "delta.dirty_fraction_min": min(fractions),
            "delta.dirty_fraction_max": max(fractions),
        }
        it.outputs = (result, store)
        return it

    def check(self, index: int, iteration: Iteration) -> None:
        result, store = iteration.outputs
        iteration.outputs = ()
        label = f"{self.name} iteration {index}"
        checks = self.checks
        report = store.verify()
        checks.expect(report.ok and not report.problems and not report.debris
                      and report.valid_epochs == CHURN_EPOCHS + 1,
                      f"{label}: epoch store verify: "
                      f"{report.classification}")
        try:
            result.validate()
            checks.expect(True, "")
        except ValueError as error:
            checks.expect(False, f"{label}: timeline validate: {error}")
        final = store.last_results
        last = store.load_epoch(CHURN_EPOCHS)
        same = len(last.records) == len(final.records) and all(
            last.records[row] == final.records[row]
            for row in range(len(final.records)))
        checks.expect(same and last.headline() == final.headline()
                      and last.metadata == final.metadata,
                      f"{label}: last load_epoch differs from the final "
                      f"results")
        iteration.artifact = timeline.timeline_fingerprint(result) + ":" + \
            ":".join(sha256_of(store.epoch_path(epoch))
                     for epoch in range(store.epochs))
        super().check(index, iteration)


class SocketSurvey(Workload):
    name = "socket_survey"

    def _start(self, internet):
        fleet = LocalWorkerFleet(SOCKET_WORKERS)
        try:
            addresses = fleet.start()
            engine = SurveyEngine(internet, config=EngineConfig(
                backend="socket", workers=SOCKET_WORKERS,
                worker_addrs=tuple(addresses),
                popular_count=WORLD["alexa_count"]))
            try:
                # Connects and BUILDs every worker: set-up, not survey.
                coordinator = engine._ensure_coordinator()
            except BaseException:
                engine.close()
                raise
        except BaseException:
            fleet.stop()
            raise
        return fleet, engine, coordinator

    def _stop(self, fleet, engine) -> None:
        try:
            engine.close()
        finally:
            fleet.stop()
        self.worker_peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def setup_only(self) -> float:
        started = time.perf_counter()
        fleet, engine, _ = self._start(self._generate())
        elapsed = time.perf_counter() - started
        self._stop(fleet, engine)
        return elapsed

    def work(self, index: int) -> Iteration:
        it = Iteration()
        path = self.workdir / f"socket-{index}.rsnap"
        started = time.perf_counter()
        internet = self._generate()
        fleet, engine, coordinator = self._start(internet)
        ready = time.perf_counter()
        try:
            results = engine.run()
            snapstore.save_results_snapshot(results, path)
            committed = time.perf_counter()
            lazy = snapstore.open_results(path)
            headline = lazy.headline()
            done = time.perf_counter()
            wire = coordinator.wire_stats()
            faults = coordinator.fault_report
        finally:
            self._stop(fleet, engine)
        it.setup_s = ready - started
        it.survey_s = committed - ready
        it.cycles_s = [done - ready]
        it.names = len(results.records)
        it.ops = it.names + SOCKET_WORKERS
        it.stored_bytes = path.stat().st_size
        it.counters = {
            "snapstore.bytes_written": it.stored_bytes,
            "snapstore.records_hydrated": lazy.hydrated_record_count,
            "distrib.bytes_sent": wire["bytes_sent"],
            "distrib.bytes_received": wire["bytes_received"],
            "distrib.retries": faults.retries,
            "analysis.names": it.names,
        }
        it.outputs = (results, lazy, headline, path, wire, faults,
                      coordinator.shutdown_report)
        return it

    def check(self, index: int, iteration: Iteration) -> None:
        label = f"{self.name} iteration {index}"
        checks = self.checks
        _check_snapshot(checks, self.rng, label, self.world_names, iteration)
        results, _, _, path, wire, faults, shutdown = iteration.outputs
        iteration.outputs = ()
        checks.expect(not faults.any() and "fault_report" not in wire
                      and "fault_report" not in results.metadata,
                      f"{label}: fault report not empty: {faults.to_dict()}")
        checks.expect(all(entry["status"] == "clean" for entry in shutdown),
                      f"{label}: unclean worker shutdown: {shutdown}")
        if index == 0:
            self._socket_metadata = dict(results.metadata)
        super().check(index, iteration)
        if index > 0:
            path.unlink()

    def finish(self) -> None:
        """The socket snapshot must be byte-identical to a serial one.

        Only the metadata keys naming the backend (backend, workers,
        shards) differ by design; the serial results take the socket
        run's values for them before the serial snapshot is written.
        """
        if self.first is None:
            return
        serial = SurveyEngine(self._generate(), config=EngineConfig(
            popular_count=WORLD["alexa_count"])).run()
        expected = dict(serial.metadata)
        for key in ("backend", "workers", "shards"):
            expected[key] = self._socket_metadata.get(key)
        self.checks.expect(expected == self._socket_metadata,
                           "socket metadata differs from serial beyond "
                           "the backend keys")
        serial.metadata = expected
        path = self.workdir / "serial-reference.rsnap"
        snapstore.save_results_snapshot(serial, path)
        self.checks.expect(sha256_of(path) == self.first.artifact,
                           "socket snapshot is not byte-identical to the "
                           "serial survey of the same world")


WORKLOADS = {cls.name: cls for cls in (ColdSurvey, ChurnStore, SocketSurvey)}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
