"""Operation mixes: the read/insert/update/delete/scan ratios of a workload.

An :class:`OperationMix` is a weighted choice over the driver's operation
verbs, sampled with the driver's single seeded RNG so runs are reproducible.
The named presets mirror the six core YCSB workloads (Cooper et al., SoCC'10):

========= ======================================== ==========================
``A``     50% read / 50% update                    update heavy (session store)
``B``     95% read / 5% update                     read mostly (photo tagging)
``C``     100% read                                read only (profile cache)
``D``     95% read / 5% insert                     read latest (status updates)
``E``     95% scan / 5% insert                     short ranges (threaded convs)
``F``     50% read / 50% update                    read-modify-write (user db)
========= ======================================== ==========================

YCSB F's read-modify-write is modelled as its observable op pair (a read and
an update of the same key count as one read sample plus one update sample),
so its ratios coincide with A; it is kept as a separate preset because
workload D/F choose different key distributions when used with the driver.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

#: Operation names in the canonical sampling order (fixed so a given RNG
#: sequence always maps to the same operations).
OPERATIONS = ("read", "insert", "update", "delete", "scan")


@dataclass(frozen=True)
class OperationMix:
    """A weighted read/insert/update/delete/scan ratio (à la YCSB A-F)."""

    name: str = "custom"
    read: float = 0.0
    insert: float = 0.0
    update: float = 0.0
    delete: float = 0.0
    scan: float = 0.0

    def __post_init__(self) -> None:
        weights = self.weights_raw()
        if any(weight < 0 for weight in weights.values()):
            raise ValueError("operation weights must be non-negative")
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("an operation mix needs at least one positive weight")
        # choose() runs once per operation of every workload; precompute the
        # cumulative thresholds (the dataclass is frozen, hence __setattr__).
        # Float round-off can leave the sum a hair under 1.0, so the last
        # positive-weight verb and every zero-weight verb after it are pinned
        # to exactly 1.0: every draw in [0, 1) then lands on a verb the mix
        # gives weight to.
        last = max(index for index, op in enumerate(OPERATIONS) if weights[op] > 0)
        cumulative, accumulated = [], 0.0
        for index, op in enumerate(OPERATIONS):
            accumulated += weights[op] / total
            cumulative.append(accumulated if index < last else 1.0)
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    def weights_raw(self) -> Dict[str, float]:
        return {op: getattr(self, op) for op in OPERATIONS}

    def weights(self) -> Dict[str, float]:
        """The mix normalised so the weights sum to 1.0."""
        raw = self.weights_raw()
        total = sum(raw.values())
        return {op: weight / total for op, weight in raw.items()}

    @property
    def write_fraction(self) -> float:
        """Fraction of operations that mutate data (insert/update/delete)."""
        weights = self.weights()
        return weights["insert"] + weights["update"] + weights["delete"]

    def choose(self, rng: random.Random) -> str:
        """Draw one operation name from the mix using ``rng``: the first verb
        whose cumulative threshold exceeds one ``rng.random()`` draw."""
        return OPERATIONS[bisect_right(self._cumulative, rng.random())]

    def verbs_of(self, uniforms: Sequence[float]) -> List[str]:
        """The operation :meth:`choose` draws from each uniform in ``[0, 1)``,
        in order."""
        cumulative = self._cumulative
        if cumulative[0] == 1.0:  # every uniform below 1.0 lands on reads
            return ["read"] * len(uniforms)
        return [OPERATIONS[bisect_right(cumulative, u)] for u in uniforms]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{op}={weight:.2f}" for op, weight in self.weights().items() if weight
        )
        return f"OperationMix({self.name!r}, {parts})"


#: The YCSB core workload presets (see the module docstring).
YCSB_MIXES: Dict[str, OperationMix] = {
    "A": OperationMix(name="A", read=0.5, update=0.5),
    "B": OperationMix(name="B", read=0.95, update=0.05),
    "C": OperationMix(name="C", read=1.0),
    "D": OperationMix(name="D", read=0.95, insert=0.05),
    "E": OperationMix(name="E", scan=0.95, insert=0.05),
    "F": OperationMix(name="F", read=0.5, update=0.5),
}


def make_mix(mix: Union[str, OperationMix]) -> OperationMix:
    """Resolve a mix: an :class:`OperationMix` passes through, a string names
    a YCSB preset (case-insensitive)."""
    if isinstance(mix, OperationMix):
        return mix
    try:
        return YCSB_MIXES[mix.upper()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown operation mix {mix!r}; choose from {sorted(YCSB_MIXES)} "
            "or pass an OperationMix"
        ) from None
