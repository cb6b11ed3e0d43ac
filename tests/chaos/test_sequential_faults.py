"""Sequential chaos crashes at every protocol site on one long-lived cluster.

One database survives a crash at each of the six ``FAULT_SITES`` in turn —
every kill scheduled through the chaos engine, every repair through
``Database.recover()`` — and after each storm the cluster is rebalanced back
to its baseline size.  A golden database runs the identical clean resize
cycles with no faults; at the end the survivor must be functionally
indistinguishable from it: same records in the same scan order, same point
lookups, nothing blocked, directory covering every key.
"""

import pytest

from repro.api import Database
from repro.chaos import CrashPlan
from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import FaultInjected
from repro.rebalance.operation import FAULT_SITES

BASELINE_NODES = 3
ROWS = 240

#: Sites up to the commit point abort on recovery; later ones roll forward.
ABORT_SITES = {"nc_fail_before_prepare", "nc_fail_after_prepare", "cc_fail_before_commit"}


def small_config():
    return ClusterConfig(
        num_nodes=BASELINE_NODES,
        partitions_per_node=2,
        seed=2022,
        lsm=LSMConfig(memory_component_bytes=16 * 1024),
        bucketing=BucketingConfig(initial_buckets_per_partition=2),
    )


def orders_rows(count):
    return [
        {"o_orderkey": key, "o_orderdate": f"1995-{(key % 12) + 1:02d}-01"}
        for key in range(count)
    ]


def fingerprint(db):
    """The observable dataset state: count, keyed contents, sampled lookups.

    Scan *order* is bucket-layout-dependent and layouts legitimately differ
    once a faulted removal rolled forward, so contents are compared sorted
    by primary key — the convergence claim is about data, not placement.
    """
    orders = db.dataset("orders")
    rows = sorted(orders.scan(), key=lambda row: row["o_orderkey"])
    sample = {key: orders.get(key) for key in range(0, ROWS, ROWS // 24)}
    return (len(rows), rows, sample)


class TestSequentialFaultRecovery:
    def test_every_site_in_turn_converges_to_the_no_fault_state(self):
        chaos_db = Database(small_config(), strategy="dynahash")
        chaos_db.create_dataset("orders", primary_key="o_orderkey").upsert_each(
            orders_rows(ROWS)
        )
        golden_db = Database(small_config(), strategy="dynahash")
        golden_db.create_dataset("orders", primary_key="o_orderkey").upsert_each(
            orders_rows(ROWS)
        )

        for site in FAULT_SITES:
            # Re-arming replaces the previous (consumed) schedule; the kill
            # targets the next explicit rebalance.  A removal must evacuate
            # the leaving node, so the protocol always reaches the site.
            engine = chaos_db.enable_chaos(crashes=[CrashPlan(after_seconds=0.0, site=site)])
            with pytest.raises(FaultInjected):
                chaos_db.rebalance(remove=1)
            assert engine.faults[-1][0] == site
            outcomes = chaos_db.recover()
            assert outcomes, f"recovery after {site} repaired nothing"
            actions = {outcome.action for outcome in outcomes}
            if site in ABORT_SITES:
                assert "aborted" in actions
            else:
                assert actions <= {"committed", "already-done"}
            assert engine.recovery_seconds() is not None
            # Normalise both clusters to the baseline size with clean cycles
            # (the survivor may sit at baseline or baseline-1 depending on
            # whether recovery aborted or rolled the removal forward).
            chaos_db.rebalance(target_nodes=BASELINE_NODES + 1)
            chaos_db.rebalance(target_nodes=BASELINE_NODES)
            golden_db.rebalance(target_nodes=BASELINE_NODES + 1)
            golden_db.rebalance(target_nodes=BASELINE_NODES)

        assert chaos_db.num_nodes == golden_db.num_nodes == BASELINE_NODES
        assert fingerprint(chaos_db) == fingerprint(golden_db)
        runtime = chaos_db._cluster.dataset("orders")
        assert runtime.blocked is False
        assert all(not p.blocked for p in runtime.partitions.values())
        assert all(not p.pending_received for p in runtime.partitions.values())
