"""``repro-dns merge``: fold offline shard files into one results snapshot.

Each input is a ``KIND_SHARD`` REPRO-SNAP container (written by
``repro-dns survey --shard i/n``) whose ``rows`` section holds the
*global* directory index of every record.  The merge takes the same path
as an online shard result:

1. every file is decoded with
   :func:`~repro.core.snapstore.unpack_shard_result`, and the row indices
   of all inputs must partition ``0..total-1`` exactly — any gap, overlap,
   or out-of-range index names the offending files and row, and nothing
   is written;
2. each shard folds into one :class:`~repro.core.engine.SurveyAggregator`
   through :meth:`~repro.core.engine.SurveyAggregator.fold_shard`, the
   fold the process backend and the socket coordinator use;
3. the passes are rebuilt from the spec strings in the shard meta, and
   :func:`~repro.core.engine.pass_metadata` — the engine's own code —
   adds their metadata and ``finalize`` reduces;
4. the result is written with
   :func:`~repro.core.snapstore.save_results_snapshot`.

So the merged records, aggregates, and metadata equal a serial survey of
the same world, apart from provenance: ``backend: "merged"``, ``workers``
and ``shards`` (the input count), and ``merged_from`` (the input names).
"""

from __future__ import annotations

import pathlib
from typing import List, NamedTuple, Optional, Set

from repro.core.engine import SurveyAggregator, pass_metadata
from repro.core.passes import build_passes
from repro.core.snapstore import save_results_snapshot, unpack_shard_result
from repro.dns.name import DomainName
from repro.distrib.wire import DistribError

#: Shard-meta keys every input of one merge must agree on.
_SETTINGS = ("popular_count", "include_bottleneck", "names_requested",
             "passes")


class MergeReport(NamedTuple):
    """What a merge did (the CLI's reporting surface)."""

    output: pathlib.Path
    names: int
    shards: int
    bytes_written: int


def merge_shard_snapshots(paths, output) -> MergeReport:
    """Fold shard files into one results snapshot (see module docstring)."""
    if not paths:
        raise DistribError("merge needs at least one shard file")
    paths = [pathlib.Path(path) for path in paths]
    shards = [unpack_shard_result(path) for path in paths]

    total = sum(len(shard.rows) for shard in shards)
    owner: List[Optional[pathlib.Path]] = [None] * total
    for path, shard in zip(paths, shards):
        for row in shard.rows:
            if not 0 <= row < total:
                raise DistribError(
                    f"{path}: row index {row} outside the merged "
                    f"range 0..{total - 1} — shard inputs do not form a "
                    f"complete partition")
            if owner[row] is not None:
                raise DistribError(
                    f"row {row} covered by both {owner[row]} and "
                    f"{path} — overlapping shard inputs")
            owner[row] = path
    # sum(len)==total and no overlap => no gaps; owner[] is fully set.

    meta = shards[0].meta
    for path, shard in zip(paths[1:], shards[1:]):
        for key in _SETTINGS:
            if shard.meta.get(key) != meta.get(key):
                raise DistribError(
                    f"{path} was surveyed with {key}="
                    f"{shard.meta.get(key)!r} but {paths[0]} with "
                    f"{meta.get(key)!r} — shard inputs from different "
                    f"surveys")

    aggregator = SurveyAggregator(total=total)
    popular: Set[DomainName] = set()
    for shard in shards:
        aggregator.fold_shard(shard)
        popular |= shard.popular
    passes = build_passes(meta.get("passes", ()))
    metadata = {
        "popular_count": meta["popular_count"],
        "include_bottleneck": meta["include_bottleneck"],
        "names_requested": total,
        "backend": "merged",
        "workers": len(shards),
        "shards": len(shards),
        "passes": [pass_.name for pass_ in passes],
        "merged_from": [path.name for path in paths],
    }
    metadata.update(pass_metadata(passes, aggregator))
    written = save_results_snapshot(aggregator.results(popular, metadata),
                                    output)
    return MergeReport(output=written, names=total, shards=len(shards),
                       bytes_written=written.stat().st_size)
