"""LSM merge policies.

AsterixDB's experiments use a size-tiered ("concurrent"/tiering-like) policy
with a size ratio of 1.2 (Section VI-A): *"This policy merges a sequence of
components when the total size of the younger components is 1.2 times larger
than that of the oldest component in the sequence."*  That policy is the
default here; a no-merge policy isolates flush behaviour in tests.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence


class MergeCandidate:
    """A contiguous run of component indices selected for merging.

    Indices refer to positions in the component list ordered **newest first**
    (the order an LSM-tree keeps them in); a merge always takes a contiguous
    suffix-or-infix so the ordering invariant between components is preserved.
    """

    def __init__(self, start: int, end: int) -> None:
        if end <= start:
            raise ValueError("a merge candidate must contain at least two components")
        self.start = start
        self.end = end

    @property
    def count(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MergeCandidate([{self.start}, {self.end}))"


class MergePolicy(Protocol):
    """Decides which disk components, if any, should be merged next."""

    def select(self, component_sizes: Sequence[int]) -> Optional[MergeCandidate]:
        """Return the components to merge, or ``None`` if no merge is needed.

        ``component_sizes`` lists component sizes in bytes, newest first.
        """
        ...  # pragma: no cover - protocol


class SizeTieredMergePolicy:
    """The tiering policy used by the paper's experiments.

    Scanning from the oldest component towards newer ones, the policy finds
    the longest suffix ``[i, n)`` (in oldest-first order) such that the total
    size of the components *younger* than the oldest one in the suffix is at
    least ``size_ratio`` times the size of that oldest component, and the
    suffix has at least ``min_components`` members.
    """

    def __init__(
        self,
        size_ratio: float = 1.2,
        min_components: int = 2,
        max_components: int = 0,
    ) -> None:
        if size_ratio <= 0:
            raise ValueError("size_ratio must be positive")
        if min_components < 2:
            raise ValueError("min_components must be at least 2")
        if max_components < 0:
            raise ValueError("max_components must be non-negative")
        self.size_ratio = size_ratio
        self.min_components = min_components
        self.max_components = max_components

    def select(self, component_sizes: Sequence[int]) -> Optional[MergeCandidate]:
        n = len(component_sizes)
        if n < self.min_components:
            return None
        # component_sizes is newest-first; walk candidate oldest components
        # from the very oldest (index n-1) towards newer ones.
        for oldest_index in range(n - 1, 0, -1):
            younger_total = sum(component_sizes[:oldest_index])
            oldest_size = component_sizes[oldest_index]
            count = oldest_index + 1
            if count < self.min_components:
                break
            if self.max_components and count > self.max_components:
                continue
            if younger_total >= self.size_ratio * oldest_size:
                return MergeCandidate(0, oldest_index + 1)
        return None


class NoMergePolicy:
    """Never merges; used to isolate flush behaviour in unit tests."""

    def select(self, component_sizes: Sequence[int]) -> Optional[MergeCandidate]:
        return None


def select_components(policy: MergePolicy, sizes: List[int]) -> Optional[MergeCandidate]:
    """Convenience wrapper that validates the policy's answer.

    Guards against a buggy policy returning an out-of-range candidate, which
    would silently corrupt the component list ordering.
    """
    candidate = policy.select(sizes)
    if candidate is None:
        return None
    if candidate.start < 0 or candidate.end > len(sizes):
        raise ValueError(f"merge policy returned out-of-range candidate {candidate!r}")
    return candidate
