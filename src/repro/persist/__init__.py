"""Persistent snapshot store for obstacle databases.

The paper's cost model counts simulated page accesses; this package
makes those pages *real*: an entire
:class:`~repro.core.engine.ObstacleDatabase` — R*-trees node-per-page,
obstacle sets with their version history, and
the warm visibility-graph cache — round-trips through one checksummed,
endianness-stable file.

Entry points::

    db.save("scene.snap")                      # ObstacleDatabase method
    db = ObstacleDatabase.load("scene.snap")   # observationally identical
    repro-snapshot save|info|verify ...        # CLI (repro.persist.cli)

Layers: :mod:`repro.persist.framing` owns the shared file header and
the durable atomic write, :mod:`repro.persist.codec` the snapshot
payload primitives (checksums, bulk float arrays),
:mod:`repro.index.pageio` the node <-> page codec,
:mod:`repro.persist.graphio` the cached graphs and version stamps,
:mod:`repro.persist.store` the assembled snapshot, and
:mod:`repro.persist.journal` the write-ahead mutation journal a
durable database (``durable=``) appends to ahead of every mutation.
"""

from repro.persist.codec import FORMAT_VERSION, MAGIC
from repro.persist.journal import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    MutationJournal,
    MutationRecord,
    apply_record,
)
from repro.persist.store import load_database, save_database, snapshot_info

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "MutationJournal",
    "MutationRecord",
    "apply_record",
    "save_database",
    "load_database",
    "snapshot_info",
]
