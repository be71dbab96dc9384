"""Crash-safe persistence and resumable runs.

Three layers under test:

* :mod:`repro.core.atomic` — the temp/fsync/replace commit protocol every
  persistence path rides, including the injector crash points.
* ``repro-dns fsck`` / :meth:`EpochStore.verify` / ``salvage`` — integrity
  classification (clean / salvageable / corrupt-base) on hand-corrupted
  stores, and the exit-code contract (0/1/2).
* the crash matrix — a real ``churn`` subprocess killed (via
  ``REPRO_FAULT_PLAN``) at every point of the commit protocol, on the
  serial and socket backends across two churn seeds; after fsck --salvage
  and ``churn --resume`` the store must be **byte-identical** to an
  uninterrupted run's, and the timeline fingerprint must match.

Plus the resurvey sidecar's crash-consistency protocol (sidecar commits
before the snapshot publishes, bound by content hash) and the
``interrupted_at_epoch`` marker a SIGTERM-stopped run records.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.cli import main, print_timeline
from repro.core import atomic
from repro.core.atomic import (
    AtomicFile,
    atomic_write_bytes,
    fsync_enabled,
    is_temp_path,
    no_fsync,
    publish_file,
    set_fsync,
    temp_debris,
)
from repro.core.snapshot import SnapshotFormatError, load_results
from repro.core.snapstore import EpochStore, verify_snapshot_file
from repro.core.timeline import (
    dnssec_spec_options,
    load_timeline,
    run_churn_timeline,
    save_timeline,
    timeline_fingerprint,
)
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Tiny world so every subprocess run stays well under a second.
WORLD_ARGS = ["--sld-count", "30", "--directory-names", "40",
              "--universities", "8", "--seed", "11"]

RATES_SPEC = ("transfer=1,death=0.5,upgrade=1,downgrade=0.5,"
              "region=1,dnssec=0.2")

PASSES_SPEC = "availability:samples=3,dnssec:fraction=0.3"

EPOCHS = 3

#: Churn seeds for the crash matrix — two, so nothing passes by accident.
MATRIX_SEEDS = (5, 17)

#: One fault per commit-protocol step, aimed at the store's second
#: commit: pre-temp-write, mid-write (torn temp), pre-replace (durable
#: temp, final untouched), and post-replace/pre-dir-fsync (the even
#: fsync events are the directory ones).
CRASH_POINTS = ("kill:write:2", "truncate:write:2",
                "kill:replace:2", "kill:fsync:2")

KILL_STATUS = 137


def _churn_args(churn_seed, store, output=None, backend="serial",
                extra=()):
    args = ["churn", *WORLD_ARGS, "--epochs", str(EPOCHS),
            "--churn-seed", str(churn_seed), "--rates", RATES_SPEC,
            "--passes", PASSES_SPEC, "--max-names", "24",
            "--store", str(store), "--no-fsync"]
    if output is not None:
        args += ["--output", str(output)]
    if backend == "socket":
        args += ["--backend", "socket", "--workers", "2"]
    return args + list(extra)


def _run_cli(args, fault_plan=None):
    """Run ``repro-dns`` in a subprocess (the only way to die for real)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + existing if existing else "")
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env, timeout=300)


def _store_files(root):
    return sorted(p.name for p in pathlib.Path(root).glob("epoch_*.rsnap"))


def _assert_stores_byte_identical(reference, resumed):
    assert _store_files(reference) == _store_files(resumed)
    for name in _store_files(reference):
        a = (pathlib.Path(reference) / name).read_bytes()
        b = (pathlib.Path(resumed) / name).read_bytes()
        assert a == b, f"{name} differs from the uninterrupted reference"


# -- atomic commit protocol --------------------------------------------------------------


def test_atomic_write_commits_atomically(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with AtomicFile(target) as handle:
        handle.handle.write(b"new contents")
        # Mid-write the destination still holds the old bytes.
        assert target.read_bytes() == b"old"
    assert target.read_bytes() == b"new contents"
    assert temp_debris(tmp_path) == []


def test_atomic_abort_keeps_destination_and_cleans_temp(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    commit = AtomicFile(target)
    commit.handle.write(b"half-finished")
    commit.abort()
    assert target.read_bytes() == b"old"
    assert temp_debris(tmp_path) == []


def test_atomic_context_manager_aborts_on_exception(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with AtomicFile(target) as handle:
            handle.handle.write(b"doomed")
            raise RuntimeError("boom")
    assert target.read_bytes() == b"old"
    assert temp_debris(tmp_path) == []


def test_publish_file_moves_staged_over_final(tmp_path):
    staged = tmp_path / ".snap.staged.1"
    final = tmp_path / "snap"
    staged.write_bytes(b"payload")
    final.write_bytes(b"old")
    publish_file(staged, final)
    assert final.read_bytes() == b"payload"
    assert not staged.exists()


def test_temp_debris_detection(tmp_path):
    debris = tmp_path / ".epoch_0002.rsnap.tmp.4242"
    debris.write_bytes(b"torn")
    committed = tmp_path / "epoch_0001.rsnap"
    committed.write_bytes(b"fine")
    assert is_temp_path(debris)
    assert not is_temp_path(committed)
    assert temp_debris(tmp_path) == [debris]


def test_fsync_toggle_layers(monkeypatch):
    monkeypatch.delenv(atomic.ENV_NO_FSYNC, raising=False)
    assert fsync_enabled()
    monkeypatch.setenv(atomic.ENV_NO_FSYNC, "1")
    assert not fsync_enabled()
    # The process-wide override beats the environment...
    previous = set_fsync(True)
    try:
        assert fsync_enabled()
        with no_fsync():  # ...and the context manager beats both.
            assert not fsync_enabled()
        assert fsync_enabled()
    finally:
        set_fsync(previous)


# -- reference run (shared by fsck + resume tests) ---------------------------------------


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted serial run: store + timeline, reused read-only."""
    root = tmp_path_factory.mktemp("reference")
    store = root / "store"
    timeline = root / "timeline.json"
    result = _run_cli(_churn_args(MATRIX_SEEDS[0], store, output=timeline))
    assert result.returncode == 0, result.stderr
    return {"store": store, "timeline": timeline}


def _corrupt_copy(reference, tmp_path):
    store = tmp_path / "store"
    shutil.copytree(reference["store"], store)
    return store


# -- store integrity: verify / salvage / fsck --------------------------------------------


def test_verify_clean_store(reference):
    report = EpochStore(reference["store"]).verify()
    assert report.classification == "clean"
    assert report.ok
    assert report.valid_epochs == EPOCHS + 1
    assert report.problems == ()
    assert report.debris == ()


def test_truncated_tail_is_salvageable(reference, tmp_path):
    store = _corrupt_copy(reference, tmp_path)
    tail = store / f"epoch_{EPOCHS:04d}.rsnap"
    tail.write_bytes(tail.read_bytes()[:tail.stat().st_size // 2])
    report = EpochStore(store).verify()
    assert report.classification == "salvageable"
    assert report.valid_epochs == EPOCHS
    assert [problem.epoch for problem in report.problems] == [EPOCHS]

    _, moved = EpochStore(store).salvage()
    assert (store / "quarantine" / tail.name).exists()
    assert [path.name for path in moved] == [tail.name]
    assert EpochStore(store).verify().classification == "clean"


def test_payload_bitflip_detected_by_checksum(reference, tmp_path):
    store = _corrupt_copy(reference, tmp_path)
    victim = store / "epoch_0002.rsnap"
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))
    report = EpochStore(store).verify()
    assert report.classification == "salvageable"
    # Epoch 2 breaks the prefix: epoch 3 is intact but unreachable, so
    # both quarantine.
    assert report.valid_epochs == 2
    _, moved = EpochStore(store).salvage()
    assert sorted(path.name for path in moved) == \
        ["epoch_0002.rsnap", "epoch_0003.rsnap"]


def test_missing_middle_epoch_raises_and_names_the_gap(reference, tmp_path):
    store = _corrupt_copy(reference, tmp_path)
    (store / "epoch_0001.rsnap").unlink()
    with pytest.raises(SnapshotFormatError) as exc:
        EpochStore(store).epochs
    assert "epoch_0001.rsnap is missing" in str(exc.value)
    assert "fsck" in str(exc.value)
    report = EpochStore(store).verify()
    assert report.valid_epochs == 1
    assert any(problem.epoch == 1 for problem in report.problems)


def test_debris_only_store_salvages_clean(reference, tmp_path):
    store = _corrupt_copy(reference, tmp_path)
    debris = store / ".epoch_0004.rsnap.tmp.31337"
    debris.write_bytes(b"interrupted commit")
    report = EpochStore(store).verify()
    assert report.classification == "salvageable"
    assert report.valid_epochs == EPOCHS + 1  # debris never hides epochs
    _, moved = EpochStore(store).salvage()
    assert moved == [debris]
    assert not debris.exists()


def test_corrupt_base_refuses_salvage(reference, tmp_path):
    store = _corrupt_copy(reference, tmp_path)
    (store / "epoch_0000.rsnap").write_bytes(b"not a snapshot at all")
    report = EpochStore(store).verify()
    assert report.classification == "corrupt-base"
    assert report.valid_epochs == 0
    with pytest.raises(SnapshotFormatError, match="no valid prefix"):
        EpochStore(store).salvage()


def test_fsck_cli_exit_codes(reference, tmp_path, capsys):
    assert main(["fsck", str(reference["store"])]) == 0
    assert "clean" in capsys.readouterr().out

    store = _corrupt_copy(reference, tmp_path)
    tail = store / f"epoch_{EPOCHS:04d}.rsnap"
    tail.write_bytes(tail.read_bytes()[:100])
    assert main(["fsck", str(store)]) == 1  # salvageable, not salvaged
    assert "--salvage" in capsys.readouterr().out
    assert main(["fsck", str(store), "--salvage"]) == 0
    assert "salvaged" in capsys.readouterr().out
    assert main(["fsck", str(store)]) == 0
    capsys.readouterr()

    (store / "epoch_0000.rsnap").write_bytes(b"garbage")
    assert main(["fsck", str(store)]) == 2
    assert main(["fsck", str(store), "--salvage"]) == 2
    capsys.readouterr()

    assert main(["fsck", str(tmp_path / "does-not-exist")]) == 2
    capsys.readouterr()


def test_fsck_cli_single_files(reference, tmp_path, capsys):
    epoch0 = reference["store"] / "epoch_0000.rsnap"
    assert main(["fsck", str(epoch0)]) == 0

    truncated = tmp_path / "short.rsnap"
    truncated.write_bytes(epoch0.read_bytes()[:200])
    assert main(["fsck", str(truncated)]) == 2

    flipped = tmp_path / "flipped.rsnap"
    blob = bytearray(epoch0.read_bytes())
    blob[-10] ^= 0xFF
    flipped.write_bytes(bytes(blob))
    assert main(["fsck", str(flipped)]) == 2

    # A single snapshot has no salvageable prefix.
    assert main(["fsck", str(epoch0), "--salvage"]) == 2
    capsys.readouterr()


def test_verify_snapshot_file_walks_payload(reference, tmp_path):
    epoch0 = reference["store"] / "epoch_0000.rsnap"
    verify_snapshot_file(epoch0)
    blob = bytearray(epoch0.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # payload byte; the TOC sits at the end
    bad = tmp_path / "bad.rsnap"
    bad.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        verify_snapshot_file(bad)


# -- resume: guards and determinism ------------------------------------------------------


def test_resume_requires_store(capsys):
    assert main(["churn", *WORLD_ARGS, "--epochs", "2", "--resume"]) == 2
    assert "--resume requires --store" in capsys.readouterr().err


def test_resume_empty_store_is_an_error(tmp_path, capsys):
    (tmp_path / "store").mkdir()
    code = main(_churn_args(MATRIX_SEEDS[0], tmp_path / "store",
                            extra=["--resume"]))
    assert code == 2
    assert "nothing to resume" in capsys.readouterr().err


def test_churn_no_fsync_does_not_outlive_the_command(tmp_path, capsys):
    """main() runs in-process too: --no-fsync must not leak past it."""
    previous = set_fsync(True)
    try:
        (tmp_path / "store").mkdir()
        code = main(_churn_args(MATRIX_SEEDS[0], tmp_path / "store",
                                extra=["--resume"]))
        capsys.readouterr()
        assert code == 2
        assert fsync_enabled()
    finally:
        set_fsync(previous)


def test_resume_rejects_mismatched_run_arguments(reference, tmp_path,
                                                 capsys):
    store = _corrupt_copy(reference, tmp_path)
    args = ["churn", *WORLD_ARGS, "--epochs", str(EPOCHS),
            "--churn-seed", str(MATRIX_SEEDS[0]), "--rates", RATES_SPEC,
            "--passes", "availability:samples=3",  # dnssec pass dropped
            "--max-names", "24", "--store", str(store), "--no-fsync",
            "--resume"]
    assert main(args) == 2
    assert "passes" in capsys.readouterr().err


def test_resume_rejects_corrupt_store_with_fsck_hint(reference, tmp_path,
                                                     capsys):
    store = _corrupt_copy(reference, tmp_path)
    tail = store / "epoch_0002.rsnap"
    tail.write_bytes(tail.read_bytes()[:100])
    code = main(_churn_args(MATRIX_SEEDS[0], store, extra=["--resume"]))
    assert code == 2
    assert "fsck" in capsys.readouterr().err


def test_resume_completes_partial_store_byte_identically(reference,
                                                         tmp_path, capsys):
    store = _corrupt_copy(reference, tmp_path)
    (store / f"epoch_{EPOCHS:04d}.rsnap").unlink()
    timeline_path = tmp_path / "timeline.json"
    code = main(_churn_args(MATRIX_SEEDS[0], store, output=timeline_path,
                            extra=["--resume"]))
    capsys.readouterr()
    assert code == 0
    _assert_stores_byte_identical(reference["store"], store)
    assert timeline_fingerprint(load_timeline(timeline_path)) == \
        timeline_fingerprint(load_timeline(reference["timeline"]))


# -- the crash matrix --------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrix_references(tmp_path_factory):
    """Uninterrupted (backend, seed) reference runs for byte comparison."""
    references = {}
    for backend in ("serial", "socket"):
        for seed in MATRIX_SEEDS:
            root = tmp_path_factory.mktemp(f"ref_{backend}_{seed}")
            store, timeline = root / "store", root / "timeline.json"
            result = _run_cli(_churn_args(seed, store, output=timeline,
                                          backend=backend))
            assert result.returncode == 0, result.stderr
            references[(backend, seed)] = {"store": store,
                                           "timeline": timeline}
    return references


@pytest.mark.parametrize("plan", CRASH_POINTS)
@pytest.mark.parametrize("seed", MATRIX_SEEDS)
@pytest.mark.parametrize("backend", ("serial", "socket"))
def test_crash_matrix(matrix_references, tmp_path, capsys, backend, seed,
                      plan):
    """Kill a real churn run at one commit-protocol point; salvage;
    resume; demand bytes identical to the uninterrupted reference."""
    reference = matrix_references[(backend, seed)]
    store = tmp_path / "store"

    crashed = _run_cli(_churn_args(seed, store, backend=backend),
                       fault_plan=f"seed=1,{plan}")
    assert crashed.returncode == KILL_STATUS, (
        f"expected the injected kill, got rc={crashed.returncode}: "
        f"{crashed.stderr}")

    # Whatever the crash left behind, every *committed* epoch must load —
    # the atomic protocol never exposes a torn file under a final name.
    report = EpochStore(store).verify()
    assert report.problems == (), [str(p) for p in report.problems]
    assert report.valid_epochs >= 1

    # fsck classifies (debris from mid-commit kills is legal), salvage
    # leaves it clean.
    assert main(["fsck", str(store)]) in (0, 1)
    assert main(["fsck", str(store), "--salvage"]) == 0
    capsys.readouterr()

    timeline_path = tmp_path / "timeline.json"
    resumed = _run_cli(_churn_args(seed, store, output=timeline_path,
                                   backend=backend, extra=["--resume"]))
    assert resumed.returncode == 0, resumed.stderr

    _assert_stores_byte_identical(reference["store"], store)
    assert timeline_fingerprint(load_timeline(timeline_path)) == \
        timeline_fingerprint(load_timeline(reference["timeline"]))


# -- resurvey sidecar crash consistency --------------------------------------------------


@pytest.fixture(scope="module")
def survey_snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("sidecar")
    snapshot = root / "prev.json"
    result = _run_cli(["survey", *WORLD_ARGS, "--max-names", "24",
                       "--output", str(snapshot)])
    assert result.returncode == 0, result.stderr
    return snapshot


def _first_host_mutation(snapshot):
    results = load_results(snapshot)
    host = sorted(results.fingerprints, key=str)[0]
    return f"set-software:host={host};software=BIND 8.2.2"


def test_sidecar_crash_between_commits_is_detected(survey_snapshot,
                                                   tmp_path):
    """Kill resurvey after the sidecar commits but before the snapshot
    publishes: the stale snapshot/new sidecar pair must be *rejected*
    (by hash), never silently replayed."""
    out = tmp_path / "next.json"
    mutation = _first_host_mutation(survey_snapshot)
    base = ["resurvey", str(survey_snapshot), *WORLD_ARGS,
            "--max-names", "24", "--mutate", mutation,
            "--output", str(out)]
    # replace events during the output commit: 1 = staged snapshot,
    # 2 = sidecar, 3 = snapshot publish.  Kill before the publish.
    crashed = _run_cli(base, fault_plan="seed=1,kill:replace:3")
    assert crashed.returncode == KILL_STATUS
    assert not out.exists()
    sidecar = pathlib.Path(str(out) + ".journal")
    assert sidecar.exists()  # committed first, describes the lost snapshot

    # A later resurvey pretending the pair is consistent must fail loudly.
    shutil.copy(survey_snapshot, out)
    replay = _run_cli(["resurvey", str(out), *WORLD_ARGS,
                       "--max-names", "24"])
    assert replay.returncode == 2
    assert "never completed" in replay.stderr


def test_sidecar_crash_before_sidecar_commit_keeps_old_pair(
        survey_snapshot, tmp_path):
    """Kill before the sidecar replaces: the old snapshot stays usable
    and a rerun of the same resurvey completes and verifies."""
    out = tmp_path / "next.json"
    mutation = _first_host_mutation(survey_snapshot)
    base = ["resurvey", str(survey_snapshot), *WORLD_ARGS,
            "--max-names", "24", "--mutate", mutation,
            "--output", str(out)]
    crashed = _run_cli(base, fault_plan="seed=1,kill:replace:2")
    assert crashed.returncode == KILL_STATUS
    assert not out.exists()
    assert not pathlib.Path(str(out) + ".journal").exists()

    redo = _run_cli(base)
    assert redo.returncode == 0, redo.stderr
    payload = json.loads(pathlib.Path(str(out) + ".journal").read_text())
    assert payload["specs"] == [mutation]
    assert payload["snapshot_sha256"] == \
        hashlib.sha256(out.read_bytes()).hexdigest()

    # And the committed pair chains: a further no-mutation resurvey
    # replays the sidecar without complaint.
    chained = _run_cli(["resurvey", str(out), *WORLD_ARGS,
                        "--max-names", "24"])
    assert chained.returncode == 0, chained.stderr
    assert "replayed 1 prior mutation(s)" in chained.stdout


# -- interrupted timelines ---------------------------------------------------------------


def _tiny_world():
    config = GeneratorConfig(seed=11, sld_count=30,
                             directory_name_count=40, university_count=8)
    return InternetGenerator(config).generate()


def _tiny_model(world):
    fraction, dnssec_seed, sign_tlds = dnssec_spec_options(PASSES_SPEC)
    return ChurnModel(world, ChurnRates.parse(RATES_SPEC), seed=5,
                      initial_dnssec=fraction, dnssec_seed=dnssec_seed,
                      dnssec_sign_tlds=sign_tlds)


@pytest.fixture(scope="module")
def interrupted_timeline():
    """A run stopped after epoch 1 of 3 by the graceful-stop hook."""
    world = _tiny_world()
    done = []

    def stop():
        return len(done) >= 2  # baseline + epoch 1 committed

    with no_fsync():
        timeline = run_churn_timeline(
            world, _tiny_model(world), epochs=EPOCHS, passes=PASSES_SPEC,
            max_names=24)
        world2 = _tiny_world()
        interrupted = run_churn_timeline(
            world2, _tiny_model(world2), epochs=EPOCHS, passes=PASSES_SPEC,
            max_names=24, progress=lambda *a: done.append(a),
            should_stop=stop)
    return {"full": timeline, "interrupted": interrupted}


def test_interrupted_marker_set_and_consistent(interrupted_timeline):
    timeline = interrupted_timeline["interrupted"]
    assert timeline.interrupted_at == 1
    assert timeline.snapshots[-1].epoch == 1
    assert interrupted_timeline["full"].interrupted_at is None


def test_interrupted_round_trip_and_validate(interrupted_timeline,
                                             tmp_path):
    timeline = interrupted_timeline["interrupted"]
    path = save_timeline(timeline, tmp_path / "t.json")
    loaded = load_timeline(path)
    assert loaded.interrupted_at == 1
    loaded.validate()
    assert json.loads(path.read_text())["config"][
        "interrupted_at_epoch"] == 1

    # A marker that does not point at the last snapshot is corruption.
    loaded.config["interrupted_at_epoch"] = 5
    with pytest.raises(ValueError, match="interrupted_at_epoch"):
        loaded.validate()


def test_interrupted_render_banner(interrupted_timeline, capsys):
    print_timeline(interrupted_timeline["interrupted"])
    output = capsys.readouterr().out
    assert "INTERRUPTED at epoch 1" in output
    assert "--resume" in output
    print_timeline(interrupted_timeline["full"])
    assert "INTERRUPTED" not in capsys.readouterr().out


def test_fingerprint_ignores_timing_but_not_content(interrupted_timeline):
    import dataclasses
    timeline = interrupted_timeline["full"]
    base = timeline_fingerprint(timeline)

    snapshots = list(timeline.snapshots)
    retimed = dataclasses.replace(snapshots[-1],
                                  delta_elapsed_s=snapshots[-1]
                                  .delta_elapsed_s + 99.0)
    timed = dataclasses.replace(timeline,
                                snapshots=snapshots[:-1] + [retimed])
    assert timeline_fingerprint(timed) == base

    moved = dataclasses.replace(snapshots[-1],
                                dirty_names=snapshots[-1].dirty_names + 1)
    changed = dataclasses.replace(timeline,
                                  snapshots=snapshots[:-1] + [moved])
    assert timeline_fingerprint(changed) != base

    # An interrupted run is distinguishable from a completed one...
    assert timeline_fingerprint(
        interrupted_timeline["interrupted"]) != base
