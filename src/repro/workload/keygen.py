"""Key distributions for the traffic engine (the YCSB core distributions).

A generator maps a seeded :class:`random.Random` plus the current keyspace
size onto a key *index* in ``[0, limit)``; the driver turns indexes into
primary-key values.  Keeping the RNG external means one driver-owned RNG
seeds every stochastic choice (key draws, batch sizes, scan lengths), which
is what makes two runs with the same seed bit-identical.

Distributions (Cooper et al., "Benchmarking Cloud Serving Systems with
YCSB", SoCC'10):

* :class:`UniformKeys` — every key equally likely.
* :class:`ZipfianKeys` — the YCSB zeta-normalised zipfian; index 0 is the
  hottest key.  ``scrambled=True`` hashes the draw across the keyspace so
  the hot set is not one contiguous range (YCSB's ScrambledZipfian).
* :class:`HotspotKeys` — a hot fraction of the keyspace absorbs a fixed
  fraction of the traffic.
* :class:`LatestKeys` — zipfian over the most recently inserted keys
  (YCSB's SkewedLatest; workload D reads what was just written).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from ..common.hashutil import hash_key

#: Cache of zipfian zeta normalisation constants keyed by ``(n, theta)``.
#: Computing zeta is O(n) over the keyspace and every driver (and every
#: phase-level distribution override) used to recompute it at construction;
#: the constant is a pure function of its key, so one process-wide map
#: serves every generator.
_ZETA_CACHE: Dict[Tuple[int, float], float] = {}


class KeyGenerator:
    """Base class: draw a key index in ``[0, limit)`` from ``rng``.

    A generator whose draw is exactly one ``rng.random()`` per index also
    defines ``indices_of(uniforms, limit)``, the column form of
    :meth:`next_index`: the index each uniform maps to, in order.  The
    driver then draws a chunk's keys as one column.  A generator whose draw
    takes another shape (a ``randrange``, or a second uniform) leaves it out.
    """

    name = "base"

    def next_index(self, rng: random.Random, limit: int) -> int:
        raise NotImplementedError

    @staticmethod
    def _check_limit(limit: int) -> None:
        if limit < 1:
            raise ValueError("key generator needs a non-empty keyspace (limit >= 1)")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class UniformKeys(KeyGenerator):
    """Every live key is equally likely."""

    name = "uniform"

    def next_index(self, rng: random.Random, limit: int) -> int:
        self._check_limit(limit)
        return rng.randrange(limit)


class ZipfianKeys(KeyGenerator):
    """The YCSB zipfian generator over a fixed keyspace of ``num_keys``.

    ``theta`` is the skew (YCSB default 0.99; higher is more skewed).  The
    zeta normalisation constant is precomputed for ``num_keys``, so draws are
    O(1); when the live keyspace is smaller than ``num_keys`` the draw is
    folded into range, which preserves the skew shape.
    """

    name = "zipfian"

    def __init__(self, num_keys: int, theta: float = 0.99, scrambled: bool = False) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be at least 1")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.num_keys = num_keys
        self.theta = theta
        self.scrambled = scrambled
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(num_keys, theta)
        # With two keys zeta2 == zetan (the formula divides by zero) and every
        # draw resolves to rank 0 or 1 before eta is read.
        self._eta = 0.0
        if num_keys > 2:
            self._eta = (1.0 - (2.0 / num_keys) ** (1.0 - theta)) / (
                1.0 - self._zeta(2, theta) / self._zetan
            )
        #: Scaled draws below this (and at or above 1.0) pick rank 1.
        self._rank_one_bound = 1.0 + 0.5**theta

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        key = (n, theta)
        cached = _ZETA_CACHE.get(key)
        if cached is None:
            cached = _ZETA_CACHE[key] = sum(1.0 / (i**theta) for i in range(1, n + 1))
        return cached

    def next_index(self, rng: random.Random, limit: int) -> int:
        return self.indices_of((rng.random(),), limit)[0]

    def indices_of(self, uniforms: Sequence[float], limit: int) -> List[int]:
        """The index each uniform draw in ``[0, 1)`` maps to, in order."""
        if limit < 1:
            self._check_limit(limit)  # raises
        num_keys = self.num_keys
        zetan = self._zetan
        rank_one_bound = self._rank_one_bound
        eta = self._eta
        alpha = self._alpha
        last = num_keys - 1
        # Rank 1 needs num_keys >= 2: with one key, zeta is 1 and u * zeta < 1.
        # The rank formula's result is clamped to the last rank inline, which
        # is a third cheaper per draw than a min() call.
        indices = [
            0 if (uz := u * zetan) < 1.0
            else 1 if uz < rank_one_bound
            else rank if (rank := int(num_keys * ((eta * u) - eta + 1.0) ** alpha)) < last
            else last
            for u in uniforms
        ]
        if self.scrambled:
            indices = [hash_key(index) % num_keys for index in indices]
        if limit < num_keys:
            return [index % limit for index in indices]
        if limit == num_keys:
            return indices
        # The live keyspace outgrew the precomputed grid (inserts during the
        # run): stretch the draws across it so new keys stay reachable while
        # the skew shape is preserved.
        return [index * limit // num_keys for index in indices]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flavour = "scrambled " if self.scrambled else ""
        return f"ZipfianKeys({flavour}n={self.num_keys}, theta={self.theta})"


class HotspotKeys(KeyGenerator):
    """A hot fraction of the keyspace receives a fixed share of the traffic.

    With the defaults, 20% of the keys serve 80% of the operations.  The hot
    set is the *lowest* indexes, so tests can reason about it directly.
    """

    name = "hotspot"

    def __init__(self, hot_fraction: float = 0.2, hot_probability: float = 0.8) -> None:
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_probability <= 1.0:
            raise ValueError("hot_probability must be in (0, 1]")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability

    def next_index(self, rng: random.Random, limit: int) -> int:
        self._check_limit(limit)
        hot_count = max(1, int(limit * self.hot_fraction))
        if hot_count >= limit or rng.random() < self.hot_probability:
            return rng.randrange(min(hot_count, limit))
        return hot_count + rng.randrange(limit - hot_count)


class LatestKeys(KeyGenerator):
    """Zipfian skew towards the most recently inserted keys.

    A fixed-size zipfian window is anchored at the *end* of the live
    keyspace: offset 0 is the newest key.  YCSB workload D uses this with a
    95/5 read/insert mix.
    """

    name = "latest"

    def __init__(self, window: int = 256, theta: float = 0.99) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._zipfian = ZipfianKeys(window, theta=theta)

    def next_index(self, rng: random.Random, limit: int) -> int:
        return self.indices_of((rng.random(),), limit)[0]

    def indices_of(self, uniforms: Sequence[float], limit: int) -> List[int]:
        """The index each uniform draw in ``[0, 1)`` maps to, in order."""
        self._check_limit(limit)
        newest = limit - 1
        offsets = self._zipfian.indices_of(uniforms, min(self.window, limit))
        return [newest - offset for offset in offsets]


#: Registry of distribution names for config-style construction.
DISTRIBUTIONS = {
    "uniform": UniformKeys,
    "zipfian": ZipfianKeys,
    "hotspot": HotspotKeys,
    "latest": LatestKeys,
}


def make_key_generator(name: str, **options: Any) -> KeyGenerator:
    """Build a distribution by name (``uniform``/``zipfian``/``hotspot``/``latest``)."""
    try:
        factory = DISTRIBUTIONS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown key distribution {name!r}; choose from {sorted(DISTRIBUTIONS)}"
        ) from None
    try:
        return factory(**options)
    except TypeError as error:
        # e.g. zipfian without num_keys: surface a config error, not a crash.
        raise ValueError(f"key distribution {name!r}: {error}") from None
