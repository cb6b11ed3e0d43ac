"""Tests for the directory metadata (manifest) files."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.manifest import Manifest


class TestVolatileMutations:
    def test_add_and_remove_bucket(self):
        manifest = Manifest("primary")
        manifest.add_bucket(0b0, 1, [10, 11])
        manifest.add_bucket(0b1, 1)
        assert manifest.valid_bucket_ids() == {(0, 1), (1, 1)}
        manifest.remove_bucket(0b1, 1)
        assert manifest.valid_bucket_ids() == {(0, 1)}

    def test_flat_component_list(self):
        manifest = Manifest("secondary")
        manifest.set_components([1, 2, 3])
        assert manifest.volatile.component_ids == [1, 2, 3]

    def test_invalidation_tracking(self):
        manifest = Manifest("secondary")
        manifest.invalidate_bucket(0b11, 2)
        assert (3, 2) in manifest.volatile.invalidated_buckets
        manifest.clear_invalidation(0b11, 2)
        assert manifest.volatile.invalidated_buckets == set()

    def test_pending_received_lists(self):
        manifest = Manifest("primary")
        manifest.add_pending_received(7)
        manifest.add_pending_received(7)  # idempotent
        assert manifest.volatile.pending_received == [7]
        manifest.remove_pending_received(7)
        manifest.remove_pending_received(7)  # idempotent
        assert manifest.volatile.pending_received == []


class TestDurability:
    def test_force_snapshots_volatile_state(self):
        manifest = Manifest("primary")
        manifest.add_bucket(0, 1)
        assert manifest.valid_bucket_ids(durable=True) == set()
        manifest.force()
        assert manifest.valid_bucket_ids(durable=True) == {(0, 1)}
        assert manifest.force_count == 1

    def test_crash_reverts_to_durable_state(self):
        manifest = Manifest("primary")
        manifest.add_bucket(0, 1)
        manifest.force()
        manifest.add_bucket(1, 1)  # never forced: lost on crash
        manifest.crash_and_recover()
        assert manifest.valid_bucket_ids() == {(0, 1)}

    def test_durable_state_is_isolated_from_later_mutations(self):
        manifest = Manifest("primary")
        manifest.add_bucket(0, 1, [1])
        manifest.force()
        manifest.volatile.buckets[(0, 1)].component_ids.append(2)
        assert manifest.durable.buckets[(0, 1)].component_ids == [1]

    def test_crash_before_any_force_empties_state(self):
        manifest = Manifest("primary")
        manifest.add_bucket(0, 1)
        manifest.crash_and_recover()
        assert manifest.valid_bucket_ids() == set()

    def test_partial_split_cleanup_scenario(self):
        """The Algorithm-1 recovery story: forced parent survives, unforced
        children disappear after a crash mid-split."""
        manifest = Manifest("primary")
        manifest.add_bucket(0b1, 1)  # parent bucket "1", depth 1
        manifest.force()
        # Split into "01" and "11" but crash before the force.
        manifest.remove_bucket(0b1, 1)
        manifest.add_bucket(0b01, 2)
        manifest.add_bucket(0b11, 2)
        manifest.crash_and_recover()
        assert manifest.valid_bucket_ids() == {(1, 1)}


# ``force`` and ``crash_and_recover`` copy the four fields of the state one by
# one; the oracle is ``copy.deepcopy``, which is what they used to call.

_BUCKET = st.tuples(st.integers(0, 7), st.integers(0, 3))
_IDS = st.lists(st.integers(0, 50), max_size=4)
_MUTATION = st.one_of(
    st.tuples(st.just("add_bucket"), _BUCKET, _IDS),
    st.tuples(st.just("remove_bucket"), _BUCKET),
    st.tuples(st.just("append_component_id"), _BUCKET, st.integers(0, 50)),
    st.tuples(st.just("set_components"), _IDS),
    st.tuples(st.just("append_flat_component_id"), st.integers(0, 50)),
    st.tuples(st.just("invalidate_bucket"), _BUCKET),
    st.tuples(st.just("clear_invalidation"), _BUCKET),
    st.tuples(st.just("add_pending_received"), st.integers(0, 9)),
    st.tuples(st.just("remove_pending_received"), st.integers(0, 9)),
)


def mutate(manifest, mutation):
    name, *arguments = mutation
    if name == "append_component_id":
        # In place, behind the manifest's back: a shared list would show.
        entry = manifest.volatile.buckets.get(arguments[0])
        if entry is not None:
            entry.component_ids.append(arguments[1])
    elif name == "append_flat_component_id":
        manifest.volatile.component_ids.append(arguments[0])
    elif name in ("set_components", "add_pending_received", "remove_pending_received"):
        getattr(manifest, name)(*arguments)
    else:
        getattr(manifest, name)(*arguments[0], *arguments[1:])


class TestFlatCopies:
    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(_MUTATION, max_size=12),
        after=st.lists(_MUTATION, min_size=1, max_size=12),
    )
    def test_force_then_mutate_then_crash(self, before, after):
        manifest = Manifest("primary")
        for mutation in before:
            mutate(manifest, mutation)
        manifest.force()
        assert manifest.durable == manifest.volatile
        assert manifest.durable is not manifest.volatile
        forced = copy.deepcopy(manifest.durable)
        for mutation in after:
            mutate(manifest, mutation)
        assert manifest.durable == forced  # nothing the volatile state did shows
        recovered = manifest.crash_and_recover()
        assert recovered is manifest.volatile and recovered == forced
        # And the recovered state is again its own: mutate it, crash again.
        for mutation in after:
            mutate(manifest, mutation)
        assert manifest.durable == forced
        assert manifest.crash_and_recover() == forced
