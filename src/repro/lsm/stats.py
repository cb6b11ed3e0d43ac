"""Storage-activity counters.

Every LSM-tree accumulates a :class:`StorageStats` describing the physical
work it performed (bytes flushed, merged, read, records parsed...).  The
cluster cost model (:mod:`repro.cluster.cost_model`) converts these counters
into simulated seconds; keeping the two concerns separate lets unit tests
assert on raw work and lets benchmarks swap cost parameters without touching
the storage engine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StorageStats:
    """Counters of physical storage work performed by one LSM-tree.

    ``add``/``snapshot``/``diff`` are hand-unrolled over the field list
    instead of reflecting through ``dataclasses.fields`` (profiled at >10x
    cheaper, same results): query scans price their reads with a snapshot
    pair per partition.  The per-operation paths take no snapshot.  A point
    lookup reads the one bucket tree's ``components_opened`` around its
    probe, and an ingest sums the work its maintenance passes report.
    """

    records_written: int = 0
    bytes_written_memory: int = 0
    bytes_flushed: int = 0
    bytes_merged_read: int = 0
    bytes_merged_written: int = 0
    records_merged: int = 0
    bytes_read: int = 0
    records_read: int = 0
    components_opened: int = 0
    flush_count: int = 0
    merge_count: int = 0
    bloom_negative_skips: int = 0

    def add(self, other: "StorageStats") -> None:
        """Accumulate another stats object into this one (in place)."""
        self.records_written += other.records_written
        self.bytes_written_memory += other.bytes_written_memory
        self.bytes_flushed += other.bytes_flushed
        self.bytes_merged_read += other.bytes_merged_read
        self.bytes_merged_written += other.bytes_merged_written
        self.records_merged += other.records_merged
        self.bytes_read += other.bytes_read
        self.records_read += other.records_read
        self.components_opened += other.components_opened
        self.flush_count += other.flush_count
        self.merge_count += other.merge_count
        self.bloom_negative_skips += other.bloom_negative_skips

    def snapshot(self) -> "StorageStats":
        """Return an independent copy of the current counters."""
        return StorageStats(
            self.records_written,
            self.bytes_written_memory,
            self.bytes_flushed,
            self.bytes_merged_read,
            self.bytes_merged_written,
            self.records_merged,
            self.bytes_read,
            self.records_read,
            self.components_opened,
            self.flush_count,
            self.merge_count,
            self.bloom_negative_skips,
        )

    def diff(self, earlier: "StorageStats") -> "StorageStats":
        """Return the work performed since ``earlier`` was snapshotted."""
        return StorageStats(
            self.records_written - earlier.records_written,
            self.bytes_written_memory - earlier.bytes_written_memory,
            self.bytes_flushed - earlier.bytes_flushed,
            self.bytes_merged_read - earlier.bytes_merged_read,
            self.bytes_merged_written - earlier.bytes_merged_written,
            self.records_merged - earlier.records_merged,
            self.bytes_read - earlier.bytes_read,
            self.records_read - earlier.records_read,
            self.components_opened - earlier.components_opened,
            self.flush_count - earlier.flush_count,
            self.merge_count - earlier.merge_count,
            self.bloom_negative_skips - earlier.bloom_negative_skips,
        )

    @property
    def total_disk_write_bytes(self) -> int:
        """All bytes written to (simulated) disk: flushes plus merge output."""
        return self.bytes_flushed + self.bytes_merged_written

    @property
    def total_disk_read_bytes(self) -> int:
        """All bytes read from (simulated) disk: queries plus merge input."""
        return self.bytes_read + self.bytes_merged_read
