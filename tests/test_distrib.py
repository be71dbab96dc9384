"""Tests for the distributed survey subsystem (``repro.distrib``).

Covers the wire protocol (framing, checksums, precise failure text), the
coordinator/worker identity guarantee (socket-backend results byte-identical
to the serial engine, cold and delta), the offline shard merge tool, and
every coordinator failure path the issue names: worker crash mid-shard,
truncated and corrupt frames, connect refusal, response timeout — each
surfacing a :class:`DistribError` (CLI exit 2), never a hang or a partial
result.
"""

import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.core.engine import EngineConfig, SurveyAggregator, SurveyEngine
from repro.core.snapshot import load_results, results_to_dict
from repro.core.survey import Survey
from repro.distrib import DistribError, WireError
from repro.distrib.coordinator import (LocalWorkerFleet, RetryPolicy,
                                       ShardCoordinator)
from repro.distrib.merge import merge_shard_snapshots
from repro.distrib.wire import (FRAME_BUILD, FRAME_ERROR, FRAME_HEADER_SIZE,
                                FRAME_OK, FRAME_PING, FRAME_RESULT,
                                FRAME_SHUTDOWN, FRAME_SURVEY, WIRE_MAGIC,
                                _FRAME_HEADER, pack_work_order,
                                parse_address, recv_frame, send_frame,
                                unpack_work_order)
from repro.distrib.worker import WorkerServer
from repro.topology.changes import ChangeJournal
from repro.topology.generator import GeneratorConfig, InternetGenerator


def _strip_metadata(results):
    payload = results_to_dict(results)
    payload.pop("metadata")
    return json.dumps(payload, sort_keys=True)


# -- wire protocol ------------------------------------------------------------------------


def test_parse_address():
    assert parse_address("127.0.0.1:8053") == ("127.0.0.1", 8053)
    assert parse_address("survey-03.example.net:9000") == \
        ("survey-03.example.net", 9000)


@pytest.mark.parametrize("bad", ["8053", "host:", ":8053", "host:abc", ""])
def test_parse_address_rejects_malformed(bad):
    with pytest.raises(DistribError, match="expected host:port"):
        parse_address(bad)


def test_frame_round_trip():
    left, right = socket.socketpair()
    try:
        payload = b"x" * 70000  # larger than one recv() chunk
        sent = send_frame(left, FRAME_SURVEY, payload)
        assert sent == FRAME_HEADER_SIZE + len(payload)
        frame_type, received = recv_frame(right, timeout=5.0)
        assert frame_type == FRAME_SURVEY
        assert received == payload
        send_frame(right, FRAME_OK)
        assert recv_frame(left, timeout=5.0) == (FRAME_OK, b"")
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_bad_magic():
    left, right = socket.socketpair()
    try:
        left.sendall(b"HTTP" + b"\x00" * (FRAME_HEADER_SIZE - 4))
        with pytest.raises(WireError, match="bad frame magic"):
            recv_frame(right, timeout=5.0)
    finally:
        left.close()
        right.close()


def test_recv_frame_rejects_checksum_mismatch():
    left, right = socket.socketpair()
    try:
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0,
                                    0xDEADBEEF, 4)
        left.sendall(header + b"ruin")
        with pytest.raises(WireError,
                           match="RESULT payload checksum mismatch"):
            recv_frame(right, timeout=5.0, peer="worker w1")
    finally:
        left.close()
        right.close()


def test_recv_frame_names_truncation_point():
    left, right = socket.socketpair()
    try:
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0, 0, 100)
        left.sendall(header + b"only-sixteen-byt")
        left.close()
        with pytest.raises(
                WireError,
                match=r"connection closed mid-RESULT payload "
                      r"\(16/100 bytes received\)"):
            recv_frame(right, timeout=5.0)
    finally:
        right.close()


def test_recv_frame_timeout_names_missing_part():
    left, right = socket.socketpair()
    try:
        with pytest.raises(WireError,
                           match=r"timed out waiting for frame header"):
            recv_frame(right, timeout=0.2)
    finally:
        left.close()
        right.close()


def test_work_order_round_trip():
    payload = pack_work_order(
        indices=[4, 19, 37], names=["a.com", "b.org", "c.de"],
        popular_flags=[True, False, True],
        specs=["remove:ns1.dead.net", "software:ns2.x.com=BIND 8.2.2"],
        dirty_names=["b.org", "q.net"])
    indices, names, flags, specs, dirty = unpack_work_order(payload)
    assert indices == [4, 19, 37]
    assert names == ["a.com", "b.org", "c.de"]
    assert flags == [True, False, True]
    assert specs == ["remove:ns1.dead.net", "software:ns2.x.com=BIND 8.2.2"]
    assert dirty == ["b.org", "q.net"]


# -- in-process worker fleet --------------------------------------------------------------


@pytest.fixture
def worker_trio():
    """Three WorkerServers on loopback, each served from a thread."""
    servers = [WorkerServer() for _ in range(3)]
    threads = [threading.Thread(target=server.serve_forever, daemon=True)
               for server in servers]
    for thread in threads:
        thread.start()
    yield [server.address for server in servers]
    # A test may leave some servers listening (one that drives a single
    # worker by hand); stop those first so the joins never wait out their
    # timeouts.
    for server, thread in zip(servers, threads):
        if thread.is_alive():
            _shutdown_worker(server.address)
    for thread in threads:
        thread.join(timeout=5)


def _shutdown_worker(address):
    """Send SHUTDOWN to a worker; one that already stopped is fine."""
    try:
        with socket.create_connection(parse_address(address),
                                      timeout=5.0) as connection:
            send_frame(connection, FRAME_SHUTDOWN)
            recv_frame(connection, timeout=5.0)
    except (OSError, WireError):
        pass


def test_socket_cold_survey_identical_to_serial(small_internet, worker_trio):
    serial = Survey(small_internet, popular_count=20,
                    backend="serial").run(max_names=90)
    survey = Survey(small_internet, popular_count=20, backend="socket",
                    worker_addrs=worker_trio)
    try:
        merged = survey.run(max_names=90)
    finally:
        survey.close()
    assert _strip_metadata(merged) == _strip_metadata(serial)
    assert merged.headline() == serial.headline()
    assert merged.metadata["backend"] == "socket"
    assert merged.metadata["workers"] == 3
    assert merged.metadata["shards"] == 3


def test_socket_survey_reports_wire_stats(small_internet, worker_trio):
    survey = Survey(small_internet, popular_count=20, backend="socket",
                    worker_addrs=worker_trio)
    try:
        survey.run(max_names=60)
        stats = survey.engine._coordinator.wire_stats()
    finally:
        survey.close()
    assert stats["workers"] == 3
    assert stats["bytes_sent"] > 0
    assert stats["bytes_received"] > stats["bytes_sent"]
    assert len(stats["per_worker"]) == 3
    for per_worker in stats["per_worker"]:
        assert per_worker["sent"] > 0
        assert per_worker["received"] > 0


def test_socket_delta_survey_identical_to_serial(small_internet,
                                                 worker_trio):
    """Two churn epochs through the socket pool match the serial delta
    engine record-for-record (the warm-worker invalidation contract)."""
    config = small_internet.config
    worlds = {"serial": InternetGenerator(config).generate(),
              "socket": InternetGenerator(config).generate()}
    engines = {
        "serial": SurveyEngine(worlds["serial"],
                               config=EngineConfig(backend="serial",
                                                   popular_count=20)),
        "socket": SurveyEngine(worlds["socket"],
                               config=EngineConfig(
                                   backend="socket", popular_count=20,
                                   worker_addrs=tuple(worker_trio))),
    }
    try:
        cold = {key: engine.run(max_names=90)
                for key, engine in engines.items()}
        assert _strip_metadata(cold["socket"]) == _strip_metadata(
            cold["serial"])

        victim = next(host for record in cold["serial"].resolved_records()
                      for host in sorted(record.tcb_servers, key=str))
        journals = {key: ChangeJournal(world)
                    for key, world in worlds.items()}
        for journal in journals.values():
            journal.set_server_software(victim, "BIND 8.2.2")
        first = {key: engines[key].run_delta(cold[key], journals[key])
                 for key in engines}
        assert first["socket"].dirty == first["serial"].dirty
        assert _strip_metadata(first["socket"].results) == \
            _strip_metadata(first["serial"].results)

        # Second epoch on the SAME journals: workers must apply only the
        # unseen spec tail, and must invalidate names the first epoch
        # surveyed on a different worker.
        marks = {key: len(journal) for key, journal in journals.items()}
        for journal in journals.values():
            journal.remove_server(victim)
        second = {key: engines[key].run_delta(first[key].results,
                                              journals[key],
                                              since=marks[key])
                  for key in engines}
        assert second["socket"].dirty == second["serial"].dirty
        assert _strip_metadata(second["socket"].results) == \
            _strip_metadata(second["serial"].results)
    finally:
        engines["socket"].close()


def test_socket_churn_cold_audit_matches_serial_reference(worker_trio):
    """churn's cold audit runs serially beside socket epochs: the two
    differ only in the backend keys, so every epoch audits identical."""
    from repro.core.timeline import run_churn_timeline
    from repro.topology.churn import ChurnModel, ChurnRates

    world = InternetGenerator(GeneratorConfig(
        seed=4242, sld_count=60, directory_name_count=90,
        university_count=12, hosting_provider_count=6, isp_count=4,
        alexa_count=15)).generate()
    model = ChurnModel(world, ChurnRates(transfer=1.0, death=0.5,
                                         upgrade=1.0, region=1.0), seed=9)
    timeline = run_churn_timeline(world, model, epochs=2, backend="socket",
                                  worker_addrs=worker_trio, popular_count=15,
                                  cold_check=True)
    assert [row.cold_identical for row in timeline.snapshots] == \
        [None, True, True]


def test_worker_rejects_survey_before_build(worker_trio):
    connection = socket.create_connection(parse_address(worker_trio[0]),
                                          timeout=5.0)
    try:
        send_frame(connection, FRAME_SURVEY,
                   pack_work_order([0], ["a.com"], [False], [], []))
        frame_type, payload = recv_frame(connection, timeout=5.0)
        assert frame_type == FRAME_ERROR
        assert "SURVEY before BUILD" in payload.decode("utf-8")
        # The worker survives the error and still answers SHUTDOWN.
        send_frame(connection, FRAME_SHUTDOWN)
        assert recv_frame(connection, timeout=5.0)[0] == FRAME_OK
    finally:
        connection.close()


# -- acceptance scale: 8000 SLDs, two seeds, cold + delta ---------------------------------


@pytest.mark.parametrize("seed", [11, 77])
def test_full_scale_socket_identity(seed):
    """The issue's acceptance bar: at ``sld_count=8000`` the merged
    socket-backend results are byte-identical to the serial backend,
    cold and after a delta re-survey, with real worker processes."""
    config = GeneratorConfig(seed=seed, sld_count=8000,
                             directory_name_count=800,
                             university_count=40, alexa_count=60,
                             hosting_provider_count=12, isp_count=10)
    # One shared world: cold surveys never mutate it (the backend-parity
    # tests rely on the same invariant), so serial and socket engines can
    # audit each other without paying a second 8000-SLD generation.
    world = InternetGenerator(config).generate()
    with LocalWorkerFleet(2) as fleet:
        engines = {
            "serial": SurveyEngine(world,
                                   config=EngineConfig(backend="serial",
                                                       popular_count=60)),
            "socket": SurveyEngine(world,
                                   config=EngineConfig(
                                       backend="socket", popular_count=60,
                                       worker_addrs=tuple(
                                           fleet.addresses))),
        }
        try:
            cold = {key: engine.run()
                    for key, engine in engines.items()}
            assert _strip_metadata(cold["socket"]) == \
                _strip_metadata(cold["serial"])

            journal = ChangeJournal(world)
            victims = sorted({host
                              for record in
                              cold["serial"].resolved_records()[:40]
                              for host in record.tcb_servers},
                             key=str)[:3]
            journal.set_server_software(victims[0], "BIND 8.2.2")
            journal.remove_server(victims[1])
            journal.move_server_region(victims[2], "eu")
            delta = {key: engines[key].run_delta(cold[key], journal)
                     for key in engines}
            assert delta["socket"].dirty == delta["serial"].dirty
            assert _strip_metadata(delta["socket"].results) == \
                _strip_metadata(delta["serial"].results)
        finally:
            engines["socket"].close()


# -- coordinator failure paths ------------------------------------------------------------


class ScriptedWorker:
    """A fake worker that speaks valid BUILD and PING, then fails SURVEY.

    ``failure(connection)`` runs instead of a RESULT reply — crash the
    connection, send garbage, stall — so the coordinator's error paths
    can be pinned down without real engines.  The PING is the startup
    heartbeat every coordinator sends after BUILD.
    """

    def __init__(self, failure):
        self._failure = failure
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        host, port = self._listener.getsockname()[:2]
        self.address = f"{host}:{port}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        connection, _peer = self._listener.accept()
        try:
            frame_type, _payload = recv_frame(connection, timeout=10.0)
            assert frame_type == FRAME_BUILD
            send_frame(connection, FRAME_OK)
            frame_type, _payload = recv_frame(connection, timeout=10.0)
            assert frame_type == FRAME_PING
            send_frame(connection, FRAME_OK)
            frame_type, _payload = recv_frame(connection, timeout=10.0)
            assert frame_type == FRAME_SURVEY
            self._failure(connection)
        except (WireError, OSError):
            pass
        finally:
            connection.close()
            self._listener.close()

    def join(self):
        self._thread.join(timeout=5)


def _run_one_shard(engine, addresses, **coordinator_options):
    coordinator = ShardCoordinator(engine, addresses,
                                   **coordinator_options)
    entries = engine._select_entries(None, 12)
    indexed = list(enumerate(entries))
    aggregator = SurveyAggregator(total=len(indexed))
    try:
        coordinator.run_shards(indexed, set(), aggregator)
    finally:
        coordinator._abort()
    return aggregator


def test_coordinator_reports_worker_crash_mid_shard(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())
    worker = ScriptedWorker(lambda connection: connection.close())
    with pytest.raises(DistribError,
                       match=r"worker 127\.0\.0\.1:\d+: connection closed "
                             r"mid-frame header"):
        _run_one_shard(engine, [worker.address])
    worker.join()


def test_coordinator_reports_truncated_result_frame(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())

    def truncate(connection):
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0, 0, 4096)
        connection.sendall(header + b"\x00" * 64)
        connection.close()

    worker = ScriptedWorker(truncate)
    with pytest.raises(DistribError,
                       match=r"connection closed mid-RESULT payload "
                             r"\(64/4096 bytes received\)"):
        _run_one_shard(engine, [worker.address])
    worker.join()


def test_coordinator_reports_corrupt_result_frame(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())

    def corrupt(connection):
        header = _FRAME_HEADER.pack(WIRE_MAGIC, 1, FRAME_RESULT, 0,
                                    0xBAD0CAFE, 8)
        connection.sendall(header + b"\x00" * 8)

    worker = ScriptedWorker(corrupt)
    with pytest.raises(DistribError, match="checksum mismatch"):
        _run_one_shard(engine, [worker.address])
    worker.join()


def test_coordinator_times_out_on_stalled_worker(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())
    release = threading.Event()

    def stall(connection):
        release.wait(timeout=10.0)

    worker = ScriptedWorker(stall)
    started = time.monotonic()
    with pytest.raises(DistribError, match="timed out waiting for"):
        _run_one_shard(engine, [worker.address], response_timeout=0.5)
    assert time.monotonic() - started < 5.0
    release.set()
    worker.join()


def test_coordinator_reports_connect_refusal(small_internet):
    engine = SurveyEngine(small_internet, config=EngineConfig())
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(DistribError,
                       match=rf"cannot connect to worker "
                             rf"127\.0\.0\.1:{dead_port}"):
        ShardCoordinator(engine, [f"127.0.0.1:{dead_port}"],
                         connect_timeout=2.0)


def _dead_address():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = "127.0.0.1:%d" % probe.getsockname()[1]
    probe.close()
    return address


def test_strict_run_aborts_on_first_failure_despite_survivor(small_internet):
    """retries=0 with a live survivor: the closing worker's own error
    aborts the run; nobody is declared dead and nothing is reassigned."""
    engine = SurveyEngine(small_internet, config=EngineConfig())
    release = threading.Event()
    closer = ScriptedWorker(lambda connection: connection.close())
    survivor = ScriptedWorker(lambda connection: release.wait(timeout=10.0))
    coordinator = ShardCoordinator(engine, [closer.address,
                                            survivor.address],
                                   min_workers=1)
    entries = engine._select_entries(None, 12)
    aggregator = SurveyAggregator(total=len(entries))
    try:
        with pytest.raises(DistribError,
                           match=rf"worker {closer.address}: connection "
                                 rf"closed mid-frame header"):
            coordinator.run_shards(list(enumerate(entries)), set(),
                                   aggregator)
    finally:
        release.set()
        coordinator._abort()
    assert not coordinator.fault_report.any()
    assert coordinator.fault_report.reassignments == 0
    assert aggregator.completed == 0
    closer.join()
    survivor.join()


def test_undecodable_result_names_the_serving_worker(small_internet):
    """After a reassignment the survivor serves the dead worker's shard;
    a decode error must name the survivor, not the shard's first owner."""
    engine = SurveyEngine(small_internet, config=EngineConfig())

    def junk_results(connection):
        # Valid frames (CRC and all) whose payload is not a shard.
        send_frame(connection, FRAME_RESULT, b"not a shard container")
        assert recv_frame(connection, timeout=10.0)[0] == FRAME_SURVEY
        send_frame(connection, FRAME_RESULT, b"not a shard container")

    dead = _dead_address()
    survivor = ScriptedWorker(junk_results)
    with pytest.raises(DistribError) as caught:
        _run_one_shard(engine, [dead, survivor.address], connect_timeout=2.0,
                       retry_policy=RetryPolicy(retries=1,
                                                backoff_base=0.01))
    message = str(caught.value)
    assert message.startswith(f"worker {survivor.address} returned an "
                              f"undecodable shard")
    assert dead not in message
    survivor.join()


def test_coordinator_requires_worker_addresses(small_internet):
    with pytest.raises(ValueError, match="worker_addrs"):
        EngineConfig(backend="socket").validate()


def test_cli_socket_failure_exits_two(capsys):
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    exit_code = main(["survey", "--sld-count", "40", "--directory-names",
                      "60", "--universities", "10", "--max-names", "10",
                      "--backend", "socket", "--worker-addrs",
                      f"127.0.0.1:{dead_port}"])
    assert exit_code == 2
    error_line = capsys.readouterr().err
    assert "error: cannot connect to worker" in error_line


# -- the offline shard merge tool ---------------------------------------------------------


TINY = ["--sld-count", "60", "--directory-names", "90",
        "--universities", "12", "--seed", "4242"]


def _write_shards(tmp_path, count, capsys, passes=()):
    paths = []
    for index in range(count):
        path = tmp_path / f"shard{index}.rsnap"
        assert main(["survey", *TINY, *passes, "--shard", f"{index}/{count}",
                     "--output", str(path)]) == 0
        paths.append(path)
    capsys.readouterr()
    return paths


#: Metadata keys that record how a run was executed, not what it found.
PROVENANCE = ("backend", "workers", "shards", "merged_from")


@pytest.mark.parametrize("passes", [
    (), ("--passes", "value,dnssec"),
    ("--passes", "availability,dnssec,value")],
    ids=["no-passes", "value-dnssec", "availability-dnssec-value"])
def test_merge_matches_serial_snapshot(tmp_path, capsys, passes):
    serial_path = tmp_path / "serial.rsnap"
    assert main(["survey", *TINY, *passes,
                 "--output", str(serial_path)]) == 0
    shard_paths = _write_shards(tmp_path, 3, capsys, passes)

    merged_path = tmp_path / "merged.rsnap"
    report = merge_shard_snapshots(shard_paths, merged_path)
    assert report.shards == 3
    assert report.bytes_written == merged_path.stat().st_size

    serial = results_to_dict(load_results(serial_path))
    merged = results_to_dict(load_results(merged_path))
    assert report.names == len(serial["records"])
    assert merged["metadata"]["backend"] == "merged"
    assert merged["metadata"]["workers"] == 3
    assert merged["metadata"]["shards"] == 3
    assert merged["metadata"]["merged_from"] == \
        [path.name for path in shard_paths]
    for payload in (serial, merged):
        for key in PROVENANCE:
            payload["metadata"].pop(key, None)
    # Everything else — records, aggregates, and the pass metadata
    # (value ranking, dnssec fraction) — equals the serial survey's, so
    # the report prints the same tables.
    assert merged == serial
    reports = []
    for path in (serial_path, merged_path):
        assert main(["report", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0]


def test_merge_rejects_shards_of_different_surveys(tmp_path, capsys):
    plain = _write_shards(tmp_path, 2, capsys)
    (tmp_path / "valued").mkdir()
    valued = _write_shards(tmp_path / "valued", 2, capsys,
                           ("--passes", "value"))
    with pytest.raises(DistribError, match="from different surveys"):
        merge_shard_snapshots([plain[0], valued[1]],
                              tmp_path / "merged.rsnap")


def test_merge_rejects_overlapping_shards(tmp_path, capsys):
    shard_paths = _write_shards(tmp_path, 2, capsys)
    with pytest.raises(DistribError, match="overlapping shard inputs"):
        merge_shard_snapshots([shard_paths[0], shard_paths[0]],
                              tmp_path / "merged.rsnap")


def test_merge_rejects_incomplete_partition(tmp_path, capsys):
    shard_paths = _write_shards(tmp_path, 2, capsys)
    with pytest.raises(DistribError,
                       match="do not form a complete partition"):
        merge_shard_snapshots([shard_paths[1]], tmp_path / "merged.rsnap")


def test_merge_cli_round_trip(tmp_path, capsys):
    serial_path = tmp_path / "serial.rsnap"
    assert main(["survey", *TINY, "--output", str(serial_path)]) == 0
    shard_paths = _write_shards(tmp_path, 2, capsys)
    merged_path = tmp_path / "merged.rsnap"
    assert main(["merge", *[str(path) for path in shard_paths],
                 "--output", str(merged_path)]) == 0
    assert "merged 2 shard file(s)" in capsys.readouterr().out
    assert main(["diff", str(serial_path), str(merged_path)]) == 0
    assert " 0 changed" in capsys.readouterr().out
