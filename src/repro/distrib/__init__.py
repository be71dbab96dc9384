"""Distributed survey: socket coordinator, workers, and shard merging.

The subsystem that lets several processes (or hosts — the protocol only
sees sockets) survey one directory:

* :mod:`repro.distrib.wire` — length-prefixed frames whose bulk payloads
  are REPRO-SNAP column containers.
* :mod:`repro.distrib.worker` — ``repro-dns worker --listen``: a warm
  serial engine behind a socket.
* :mod:`repro.distrib.coordinator` — shard striping, work-order
  shipping, and the byte-identical shard-order fold; plus
  :class:`LocalWorkerFleet` for CI-friendly local multi-host simulation.
* :mod:`repro.distrib.merge` — ``repro-dns merge``: fold offline shard
  snapshot files through the engine's shard fold.
* :mod:`repro.distrib.faults` — deterministic fault injection
  (:class:`FaultPlan`) for chaos-testing the recovery machinery.

Fault tolerance lives in the coordinator: :class:`RetryPolicy` governs
reconnect-and-rebuild retries with deterministic backoff,
:class:`FaultReport` tallies what recovery did, and
:class:`WorkerLostError` marks a worker that exhausted its budget (its
shard is reassigned to a survivor, preserving byte-identical folds).
"""

from repro.distrib.wire import DistribError, WireError

from repro.distrib.coordinator import (FaultReport, RetryPolicy,
                                       WorkerLostError)
from repro.distrib.faults import FaultPlan

__all__ = ["DistribError", "WireError", "FaultReport", "RetryPolicy",
           "WorkerLostError", "FaultPlan"]
