"""Write-ahead logging.

Two log flavours exist in the system, both modelled here:

* Each partition has a **data WAL** recording every write applied to its
  indexes.  During a rebalance, the log records of concurrent writes to a
  moving bucket are *replicated* to the destination partition (Section V-A,
  "Preparing for Concurrent Writes"); the destination replays them into the
  memory components that hold rebalance writes.
* The Cluster Controller has a **metadata log** holding the BEGIN / COMMIT /
  DONE records that drive the rebalance two-phase commit and its recovery
  cases (Section V-D).

The simulator keeps logs in memory but distinguishes *forced* records
(guaranteed durable before the call returns) from unforced ones, because the
recovery analysis depends only on which records were forced before a crash.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence

_lsn_counter = itertools.count(1)


class LogRecordType(Enum):
    """Kinds of log records used by the data and metadata logs."""

    INSERT = "insert"
    DELETE = "delete"
    UPSERT = "upsert"
    # Metadata (CC) records for the rebalance protocol.
    REBALANCE_BEGIN = "rebalance_begin"
    REBALANCE_COMMIT = "rebalance_commit"
    REBALANCE_DONE = "rebalance_done"
    REBALANCE_ABORT = "rebalance_abort"


DATA_RECORD_TYPES = frozenset(
    {LogRecordType.INSERT, LogRecordType.DELETE, LogRecordType.UPSERT}
)


class LogRecord:
    """One log record.

    ``payload`` carries the record key/value for data records, or protocol
    details (rebalance id, target nodes) for metadata records.  A
    ``__slots__`` value class (immutable by convention) because one record is
    appended per applied write — the frozen-dataclass constructor was
    measurable on the ingest path.
    """

    __slots__ = ("lsn", "record_type", "dataset", "partition_id", "payload", "forced")

    def __init__(
        self,
        lsn: int,
        record_type: LogRecordType,
        dataset: str,
        partition_id: Optional[int],
        payload: Optional[Dict[str, Any]] = None,
        forced: bool = False,
    ) -> None:
        self.lsn = lsn
        self.record_type = record_type
        self.dataset = dataset
        self.partition_id = partition_id
        self.payload = payload if payload is not None else {}
        self.forced = forced

    @property
    def is_data_record(self) -> bool:
        return self.record_type in DATA_RECORD_TYPES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return (
            self.lsn == other.lsn
            and self.record_type == other.record_type
            and self.dataset == other.dataset
            and self.partition_id == other.partition_id
            and self.payload == other.payload
            and self.forced == other.forced
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LogRecord(lsn={self.lsn}, {self.record_type.value}, "
            f"{self.dataset!r}/p{self.partition_id})"
        )


class WriteAheadLog:
    """An append-only log with explicit force points.

    ``crash()`` truncates the log back to the last forced record, modelling a
    node failure that loses unforced tail records; recovery code then replays
    what survived.
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._records: List[LogRecord] = []
        self._forced_upto = 0  # index one past the last durable record
        self._bytes_appended = 0
        self._bytes_forced = 0
        #: Index one past the last record folded into ``_bytes_appended``.
        #: Sizing walks the whole payload (str() of the record value), so the
        #: append hot path defers it; readers settle the tail on demand and
        #: observe exactly the same totals.
        self._sized_upto = 0

    def __len__(self) -> int:
        return len(self._records)

    def _settle_sizes(self) -> None:
        """Fold not-yet-sized records into the appended-bytes total."""
        while self._sized_upto < len(self._records):
            self._bytes_appended += self._estimate_size(self._records[self._sized_upto])
            self._sized_upto += 1

    @property
    def bytes_appended(self) -> int:
        """Total bytes ever appended (for cost accounting)."""
        self._settle_sizes()
        return self._bytes_appended

    @property
    def bytes_forced(self) -> int:
        return self._bytes_forced

    def append(
        self,
        record_type: LogRecordType,
        dataset: str,
        partition_id: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
        force: bool = False,
    ) -> LogRecord:
        """Append a record; if ``force`` is set the whole log tail is forced."""
        record = LogRecord(
            lsn=next(_lsn_counter),
            record_type=record_type,
            dataset=dataset,
            partition_id=partition_id,
            # Callers pass freshly built payload dicts; storing them without
            # another shallow copy keeps the append path allocation-light.
            payload=payload if payload is not None else {},
            forced=force,
        )
        self._records.append(record)
        if force:
            self.force()
        return record

    def append_many(
        self,
        record_type: LogRecordType,
        dataset: str,
        partition_id: Optional[int],
        keys: Sequence[Any],
        values: Sequence[Any],
    ) -> None:
        """Append one unforced data record per ``(key, value)`` pair, in
        order: the records and consecutive LSNs of one :meth:`append` with
        payload ``{"key": key, "value": value}`` per pair."""
        append = self._records.append
        for key, value in zip(keys, values):
            append(
                LogRecord(
                    next(_lsn_counter),
                    record_type,
                    dataset,
                    partition_id,
                    {"key": key, "value": value},
                )
            )

    def force(self) -> None:
        """Make every appended record durable (an fsync of the log tail)."""
        while self._forced_upto < len(self._records):
            record = self._records[self._forced_upto]
            self._bytes_forced += self._estimate_size(record)
            self._forced_upto += 1

    def crash(self) -> int:
        """Discard unforced tail records, as a crash would; return count lost.

        The lost records still count into ``bytes_appended`` (they *were*
        appended), so their sizes are settled before the tail is dropped.
        """
        self._settle_sizes()
        lost = len(self._records) - self._forced_upto
        del self._records[self._forced_upto:]
        self._sized_upto = len(self._records)
        return lost

    def records(self, durable_only: bool = False) -> List[LogRecord]:
        """Return the log contents (optionally only the durable prefix)."""
        if durable_only:
            return list(self._records[: self._forced_upto])
        return list(self._records)

    def iter_dataset(
        self, dataset: str, durable_only: bool = False
    ) -> Iterator[LogRecord]:
        """Iterate records for one dataset in LSN order."""
        for record in self.records(durable_only=durable_only):
            if record.dataset == dataset:
                yield record

    def tail_since(self, lsn: int) -> List[LogRecord]:
        """Records with LSN strictly greater than ``lsn`` (for replication)."""
        return [record for record in self._records if record.lsn > lsn]

    def last_lsn(self) -> int:
        """LSN of the newest record, or 0 for an empty log."""
        return self._records[-1].lsn if self._records else 0

    @staticmethod
    def _estimate_size(record: LogRecord) -> int:
        base = 32
        for key, value in record.payload.items():
            base += len(str(key)) + len(str(value))
        return base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteAheadLog(owner={self.owner!r}, records={len(self._records)})"
