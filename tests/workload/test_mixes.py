"""Operation mixes: normalisation, sampling, and the YCSB presets."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import OPERATIONS, OperationMix, YCSB_MIXES, make_mix


class TestOperationMix:
    def test_weights_normalise_to_one(self):
        mix = OperationMix(read=3, update=1)
        weights = mix.weights()
        assert weights["read"] == pytest.approx(0.75)
        assert weights["update"] == pytest.approx(0.25)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_write_fraction(self):
        mix = OperationMix(read=0.5, insert=0.2, update=0.2, delete=0.1)
        assert mix.write_fraction == pytest.approx(0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            OperationMix(read=-0.1, update=1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            OperationMix()

    def test_choose_matches_the_ratios(self):
        mix = OperationMix(read=0.8, update=0.2)
        rng = random.Random(3)
        counts = Counter(mix.choose(rng) for _ in range(10_000))
        assert set(counts) == {"read", "update"}
        assert 0.77 <= counts["read"] / 10_000 <= 0.83

    def test_choose_is_deterministic_per_seed(self):
        mix = OperationMix(read=0.5, insert=0.2, update=0.2, delete=0.05, scan=0.05)
        draws_a = [mix.choose(random.Random(9)) for _ in range(1)]
        rng_a, rng_b = random.Random(9), random.Random(9)
        assert [mix.choose(rng_a) for _ in range(100)] == [
            mix.choose(rng_b) for _ in range(100)
        ]
        assert draws_a[0] in OPERATIONS


class TestPresets:
    def test_all_six_ycsb_workloads_exist(self):
        assert set(YCSB_MIXES) == {"A", "B", "C", "D", "E", "F"}

    def test_preset_shapes(self):
        assert YCSB_MIXES["A"].weights()["update"] == pytest.approx(0.5)
        assert YCSB_MIXES["B"].weights()["read"] == pytest.approx(0.95)
        assert YCSB_MIXES["C"].weights()["read"] == pytest.approx(1.0)
        assert YCSB_MIXES["D"].weights()["insert"] == pytest.approx(0.05)
        assert YCSB_MIXES["E"].weights()["scan"] == pytest.approx(0.95)
        assert YCSB_MIXES["F"].write_fraction == pytest.approx(0.5)

    def test_make_mix_resolves_names_case_insensitively(self):
        assert make_mix("a") is YCSB_MIXES["A"]
        assert make_mix("B") is YCSB_MIXES["B"]

    def test_make_mix_passes_instances_through(self):
        mix = OperationMix(read=1.0)
        assert make_mix(mix) is mix

    def test_make_mix_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown operation mix"):
            make_mix("Z")


class _FixedDraw:
    """An RNG stub whose every ``random()`` returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def choose_by_scan(mix, draw):
    """The threshold scan ``choose`` replaced: the first verb whose
    cumulative threshold exceeds the draw."""
    for op, threshold in zip(OPERATIONS, mix._cumulative, strict=True):
        if draw < threshold:
            return op
    raise AssertionError(f"draw {draw!r} fell past every threshold")


class TestChooseDrawsOnlyWeightedVerbs:
    def test_the_largest_draw_takes_the_last_weighted_verb(self):
        # The weights sum to 0.8, so the thresholds accumulate in floats to
        # 0.9999999999999999: the largest draw random() can return used to
        # fall through to "read", a verb this mix gives no weight.
        mix = OperationMix(insert=0.15, update=0.05, scan=0.6)
        assert mix.choose(_FixedDraw(1 - 2**-53)) == "scan"
        assert mix.choose(_FixedDraw(0.0)) == "insert"

    def test_every_preset_already_ends_at_one(self):
        # Pinning the last threshold moves no committed stream: every preset's
        # accumulated thresholds already reach exactly 1.0.
        for mix in YCSB_MIXES.values():
            weights = mix.weights_raw()
            total = sum(weights.values())
            accumulated, unpinned = 0.0, []
            for op in OPERATIONS:
                accumulated += weights[op] / total
                unpinned.append(accumulated)
            last = max(i for i, op in enumerate(OPERATIONS) if weights[op] > 0)
            assert unpinned[last] == 1.0
            assert mix._cumulative[:last] == tuple(unpinned[:last])

    def test_bisect_matches_the_threshold_scan_on_one_stream(self):
        for mix in list(YCSB_MIXES.values()) + [
            OperationMix(read=0.5, insert=0.2, update=0.2, delete=0.05, scan=0.05),
            OperationMix(insert=0.15, update=0.05, scan=0.6),
        ]:
            rng, oracle = random.Random(11), random.Random(11)
            assert [mix.choose(rng) for _ in range(2000)] == [
                choose_by_scan(mix, oracle.random()) for _ in range(2000)
            ]

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
            min_size=len(OPERATIONS),
            max_size=len(OPERATIONS),
        ).filter(lambda weights: any(weights)),
        draw=st.one_of(
            st.just(0.0), st.just(1 - 2**-53), st.floats(min_value=0.0, max_value=1 - 2**-53)
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_draw_only_lands_on_a_weighted_verb(self, weights, draw):
        mix = OperationMix(**dict(zip(OPERATIONS, weights, strict=True)))
        op = mix.choose(_FixedDraw(draw))
        assert getattr(mix, op) > 0
        assert op == choose_by_scan(mix, draw)
