"""The Cluster Controller's metadata log.

The CC logs the BEGIN / COMMIT / ABORT / DONE records that drive the
rebalance two-phase commit; after a crash, rebalance recovery reads the
durable records to decide each in-flight rebalance's outcome (Section V-D).

The paper's NCs also keep a data log, for replaying memory components after a
crash and for replicating a moving bucket's concurrent writes (Section V-A).
The simulator models neither use: no crash loses a memory component, and the
log replicator forwards the stored rows themselves.  So there is no data log.

The log lives in memory but distinguishes *forced* records (durable before
the call returns) from unforced ones, because the recovery analysis depends
only on which records were forced before a crash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional


class LogRecordType(Enum):
    """Kinds of metadata log records, one per rebalance protocol step."""

    REBALANCE_BEGIN = "rebalance_begin"
    REBALANCE_COMMIT = "rebalance_commit"
    REBALANCE_DONE = "rebalance_done"
    REBALANCE_ABORT = "rebalance_abort"


@dataclass
class LogRecord:
    """One log record: ``payload`` carries the protocol details (rebalance
    id, serialized plan, abort reason)."""

    lsn: int
    record_type: LogRecordType
    dataset: str
    payload: Dict[str, Any] = field(default_factory=dict)


class WriteAheadLog:
    """An append-only log with explicit force points.

    LSNs count from 1 per log, so two identical runs in one process write
    identical logs.  ``crash()`` truncates the log back to the last forced
    record, modelling a failure that loses the unforced tail.
    """

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
        self._forced_upto = 0  # index one past the last durable record
        self._lsns = itertools.count(1)

    def append(
        self,
        record_type: LogRecordType,
        dataset: str,
        payload: Optional[Dict[str, Any]] = None,
        force: bool = False,
    ) -> LogRecord:
        """Append a record; if ``force`` is set the whole log tail is forced."""
        record = LogRecord(
            next(self._lsns), record_type, dataset, payload if payload is not None else {}
        )
        self._records.append(record)
        if force:
            self.force()
        return record

    def force(self) -> None:
        """Make every appended record durable (an fsync of the log tail)."""
        self._forced_upto = len(self._records)

    def crash(self) -> int:
        """Discard unforced tail records, as a crash would; return count lost."""
        lost = len(self._records) - self._forced_upto
        del self._records[self._forced_upto:]
        return lost

    def records(self, durable_only: bool = False) -> List[LogRecord]:
        """Return the log contents (optionally only the durable prefix)."""
        if durable_only:
            return self._records[: self._forced_upto]
        return list(self._records)
