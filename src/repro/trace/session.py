"""One tracing session: a tracer plus a timeline recorder, lifecycled together.

:meth:`Database.start_trace` constructs and attaches a
:class:`TraceSession`; closing the database (or calling :meth:`finish`)
closes every open span at the final clock reading, takes the closing gauge
sample, and detaches everything.  ``to_payload`` produces the JSON-safe
document that recordings embed and the export module renders.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from .spans import Span, Tracer
from .timeline import DEFAULT_INTERVAL_SECONDS, TimelineRecorder, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database

__all__ = ["TRACE_PAYLOAD_VERSION", "TraceSession"]

#: Version of the embedded trace payload (bumped on breaking shape changes).
TRACE_PAYLOAD_VERSION = 1


class TraceSession:
    """A live tracing attachment on one :class:`Database` session."""

    def __init__(
        self,
        db: "Database",
        sample_interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
    ) -> None:
        self.db = db
        self.tracer = Tracer(db)
        self.recorder = TimelineRecorder(db, interval_seconds=sample_interval_seconds)
        self._finished = False

    def attach(self) -> "TraceSession":
        self.tracer.attach()
        self.recorder.attach()
        return self

    def finish(self) -> "TraceSession":
        """Idempotently close spans, take the final sample, and detach."""
        if not self._finished:
            self._finished = True
            self.tracer.finish()
            self.recorder.finish()
        return self

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def spans(self) -> List[Span]:
        return self.tracer.spans

    @property
    def series(self) -> List[TimeSeries]:
        return self.recorder.series

    def to_payload(
        self, scenario: Optional[str] = None, seed: Optional[int] = None
    ) -> Dict[str, Any]:
        """The JSON-safe trace document (spans + series + heat)."""
        timeline = self.recorder.to_payload()
        return {
            "version": TRACE_PAYLOAD_VERSION,
            "scenario": scenario,
            "seed": seed,
            "interval_seconds": timeline["interval_seconds"],
            "spans": self.tracer.to_payload(),
            "series": timeline["series"],
            "heat": timeline["heat"],
        }
