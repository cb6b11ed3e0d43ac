"""Key distributions: bounds, determinism, and expected skew."""

import random
from collections import Counter

import pytest

from repro.common.hashutil import hash_key
from repro.workload import (
    HotspotKeys,
    LatestKeys,
    UniformKeys,
    ZipfianKeys,
    make_key_generator,
)

DRAWS = 20_000


def frequencies(generator, limit, draws=DRAWS, seed=7):
    rng = random.Random(seed)
    counts = Counter(generator.next_index(rng, limit) for _ in range(draws))
    return counts


class TestBoundsAndDeterminism:
    @pytest.mark.parametrize(
        "generator",
        [
            UniformKeys(),
            ZipfianKeys(num_keys=500),
            ZipfianKeys(num_keys=500, scrambled=True),
            HotspotKeys(),
            LatestKeys(window=64),
        ],
        ids=lambda g: type(g).__name__,
    )
    def test_indexes_stay_in_range(self, generator):
        rng = random.Random(11)
        for limit in (1, 2, 37, 500):
            for _ in range(200):
                assert 0 <= generator.next_index(rng, limit) < limit

    def test_same_seed_same_sequence(self):
        generator = ZipfianKeys(num_keys=1000)
        rng_a, rng_b = random.Random(42), random.Random(42)
        draws_a = [generator.next_index(rng_a, 1000) for _ in range(50)]
        draws_b = [generator.next_index(rng_b, 1000) for _ in range(50)]
        assert draws_a == draws_b

    def test_empty_keyspace_rejected(self):
        with pytest.raises(ValueError):
            UniformKeys().next_index(random.Random(0), 0)


class TestUniform:
    def test_roughly_flat(self):
        """Chi-square-ish check: every decile holds ~10% of the draws."""
        counts = frequencies(UniformKeys(), 100)
        for decile in range(10):
            share = sum(counts[k] for k in range(decile * 10, decile * 10 + 10)) / DRAWS
            assert 0.07 <= share <= 0.13


class TestZipfian:
    def test_index_zero_is_hottest_and_matches_theory(self):
        """The hottest key's share should be ~1/zeta_n(theta) of the draws."""
        n, theta = 500, 0.99
        generator = ZipfianKeys(num_keys=n, theta=theta)
        counts = frequencies(generator, n)
        assert counts.most_common(1)[0][0] == 0
        expected_top = 1.0 / generator._zetan  # P(rank 1) = 1 / zeta_n
        observed_top = counts[0] / DRAWS
        assert expected_top * 0.7 <= observed_top <= expected_top * 1.3

    def test_skew_head_dominates(self):
        counts = frequencies(ZipfianKeys(num_keys=1000), 1000)
        head = sum(counts[k] for k in range(10)) / DRAWS
        tail = sum(counts[k] for k in range(500, 1000)) / DRAWS
        assert head > 0.35  # ten keys absorb over a third of the traffic
        # Theory at theta=0.99, n=1000: head ~ zeta(10)/zeta(1000) ~ 0.39,
        # tail ~ 0.09 -> the ten hottest keys out-draw the coldest five hundred.
        assert head > 4 * tail

    def test_folds_into_smaller_live_keyspace(self):
        counts = frequencies(ZipfianKeys(num_keys=1000), 10)
        assert set(counts) <= set(range(10))
        assert counts.most_common(1)[0][0] == 0

    def test_stretches_across_a_grown_keyspace(self):
        """Keys inserted beyond the precomputed grid stay reachable."""
        counts = frequencies(ZipfianKeys(num_keys=100), 10_000)
        assert counts.most_common(1)[0][0] == 0  # head still hottest
        assert any(key >= 100 for key in counts)  # new keys get traffic
        assert all(key < 10_000 for key in counts)

    def test_scrambled_moves_the_hot_key_off_zero(self):
        generator = ZipfianKeys(num_keys=1000, scrambled=True)
        counts = frequencies(generator, 1000)
        hottest, hottest_count = counts.most_common(1)[0]
        assert hottest != 0
        # Still zipf-skewed after scrambling: one key clearly dominates.
        assert hottest_count / DRAWS > 0.05

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ZipfianKeys(num_keys=0)
        with pytest.raises(ValueError):
            ZipfianKeys(num_keys=10, theta=1.5)


class TestHotspot:
    def test_hot_set_receives_its_share(self):
        """20% of keys get ~80% of traffic (both within tolerance bounds)."""
        counts = frequencies(HotspotKeys(hot_fraction=0.2, hot_probability=0.8), 100)
        hot_share = sum(counts[k] for k in range(20)) / DRAWS
        assert 0.76 <= hot_share <= 0.84

    def test_degenerate_tiny_keyspace_is_all_hot(self):
        counts = frequencies(HotspotKeys(hot_fraction=0.2, hot_probability=0.5), 2)
        assert set(counts) <= {0, 1}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HotspotKeys(hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotspotKeys(hot_probability=1.5)


class TestLatest:
    def test_newest_key_is_hottest(self):
        counts = frequencies(LatestKeys(window=64), 1000)
        assert counts.most_common(1)[0][0] == 999
        # The window anchors at the end of the keyspace.
        assert all(key >= 1000 - 64 for key in counts)

    def test_window_clamps_to_small_keyspaces(self):
        counts = frequencies(LatestKeys(window=64), 5)
        assert set(counts) <= {0, 1, 2, 3, 4}
        assert counts.most_common(1)[0][0] == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LatestKeys(window=0)


class TestFactory:
    def test_resolves_names_case_insensitively(self):
        assert isinstance(make_key_generator("UNIFORM"), UniformKeys)
        assert isinstance(make_key_generator("zipfian", num_keys=10), ZipfianKeys)
        assert isinstance(make_key_generator("hotspot"), HotspotKeys)
        assert isinstance(make_key_generator("latest"), LatestKeys)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown key distribution"):
            make_key_generator("pareto")

    def test_missing_required_option_raises_value_error(self):
        """zipfian needs num_keys: a config error, not a TypeError crash."""
        with pytest.raises(ValueError, match="num_keys"):
            make_key_generator("zipfian")


def zipfian_by_formula(generator, rng, limit):
    """The two-step draw ``next_index`` inlined: YCSB's zipfian rank for one
    ``rng.random()``, clamped to the grid, then scrambled and fitted to
    ``limit``."""
    u = rng.random()
    uz = u * generator._zetan
    if uz < 1.0:
        index = 0
    elif uz < 1.0 + 0.5**generator.theta:
        index = 1
    else:
        eta = generator._eta
        index = int(generator.num_keys * ((eta * u) - eta + 1.0) ** generator._alpha)
    index = min(index, generator.num_keys - 1)
    if generator.scrambled:
        index = hash_key(index) % generator.num_keys
    if limit <= generator.num_keys:
        return index % limit
    return index * limit // generator.num_keys


class TestZipfianStream:
    @pytest.mark.parametrize("num_keys", [1, 2, 3, 1024, 20_000])
    @pytest.mark.parametrize("theta", [0.5, 0.99])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_next_index_is_the_formula_on_one_stream(self, num_keys, theta, scrambled):
        generator = ZipfianKeys(num_keys=num_keys, theta=theta, scrambled=scrambled)
        for limit in (1, 7, num_keys, 3 * num_keys + 1):
            rng, oracle = random.Random(num_keys), random.Random(num_keys)
            assert [generator.next_index(rng, limit) for _ in range(3000)] == [
                zipfian_by_formula(generator, oracle, limit) for _ in range(3000)
            ]
            assert rng.random() == oracle.random()  # one draw per key, no more
            # The column form maps each uniform as the formula does.
            rng.seed(num_keys)
            oracle.seed(num_keys)
            assert generator.indices_of([rng.random() for _ in range(3000)], limit) == [
                zipfian_by_formula(generator, oracle, limit) for _ in range(3000)
            ]

    @pytest.mark.parametrize("num_keys", [3, 1024])
    @pytest.mark.parametrize("theta", [0.5, 0.99])
    def test_eta_is_the_ycsb_formula_above_two_keys(self, num_keys, theta):
        def zeta(n):
            return sum(1.0 / (i**theta) for i in range(1, n + 1))

        expected = (1.0 - (2.0 / num_keys) ** (1.0 - theta)) / (1.0 - zeta(2) / zeta(num_keys))
        assert ZipfianKeys(num_keys=num_keys, theta=theta)._eta == expected
