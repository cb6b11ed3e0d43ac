"""Runtime completeness: a full system run emits only declared events, with
payloads inside the declared key sets.

The static rules check literal ``emit(...)`` sites; dynamic names (the
``op.{verb}`` f-string in ``repro.api.dataset``) escape them.  This test
closes the gap from the other side: subscribe to ``"*"``, drive every
subsystem — verbs, queries, ingest, rebalance, autopilot, recovery, session
close — and hold each *observed* event to the contract.
"""

from repro.api import Database, QuerySpec, TableAccess
from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.event_contract import EVENT_CONTRACT, allowed_keys, required_keys
from repro.query.operators import filter_rows


def small_config() -> ClusterConfig:
    return ClusterConfig(
        num_nodes=3,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=16 * 1024),
        bucketing=BucketingConfig(max_bucket_bytes=1 << 20, initial_buckets_per_partition=2),
    )


def drive_full_session(events):
    """Exercise every event-emitting subsystem once; append Events to ``events``."""
    db = Database(small_config(), strategy="dynahash")
    db.on("*", events.append)
    pilot = db.autopilot(check_every_ops=50, dry_run=True)
    pilot.start()

    traffic = db.create_dataset("traffic", primary_key="id")
    traffic.insert([{"id": i, "value": i % 7} for i in range(300)])
    traffic.get(5)
    traffic.get(-1)  # miss: exercises found=False
    traffic.upsert([{"id": 5, "value": 99}])
    traffic.upsert_each([{"id": 7, "value": 1}, {"id": 8, "value": 2}])
    traffic.delete(6)
    list(traffic.scan())
    db.execute(
        "probe",
        lambda context: filter_rows(
            context.scan("traffic"), lambda row: row["value"] > 3, context.operator_stats
        ),
    )
    db.execute_spec(QuerySpec(name="spec_probe", accesses=[TableAccess(dataset="traffic")]))

    db.remove_nodes(1)
    db.add_nodes(1)
    db.recover()

    scratch = db.create_dataset("scratch", primary_key="id")
    scratch.insert([{"id": 1}])
    scratch.drop()

    db.close()


class TestContractCompleteness:
    def test_every_emitted_event_is_declared_and_conformant(self):
        events = []
        drive_full_session(events)
        assert events, "the run emitted nothing — the bus is not wired"
        for event in events:
            assert event.name in EVENT_CONTRACT, f"undeclared event {event.name!r}"
            keys = set(event.payload)
            missing = required_keys(event.name) - keys
            unknown = keys - allowed_keys(event.name)
            assert not missing, f"{event.name}: payload missing {sorted(missing)}"
            assert not unknown, f"{event.name}: payload has undeclared {sorted(unknown)}"

    def test_the_run_covers_every_family(self):
        events = []
        drive_full_session(events)
        names = {event.name for event in events}
        assert {
            "op.read",
            "op.insert",
            "op.update",
            "op.batch",
            "op.delete",
            "op.scan",
            "op.query",
            "dataset.create",
            "dataset.drop",
            "rebalance.start",
            "rebalance.phase",
            "rebalance.commit",
            "rebalance.complete",
            "recovery.complete",
            "node.provision",
            "node.decommission",
            "autopilot.start",
            "autopilot.stop",
            "database.close",
        } <= names, sorted(names)
