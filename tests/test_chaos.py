"""Fault injection, recovery, and the chaos differential oracle.

Three layers of assurance over :mod:`repro.distributed.faults`:

* unit tests that force single faults (a dropped request, a dropped
  reply, a timed-out delivery, a crashed server) and check the exact
  protocol response — retry, dedup hit, typed error;
* the acceptance-grade chaos run: thousands of mixed operations against
  a multi-shard durable cluster under seeded drops / duplicates /
  delays plus forced crash-restart cycles must end byte-identical to a
  single-node oracle with zero double-applied mutations;
* a Hypothesis stateful machine interleaving operations, crashes and
  heals against a dict model.
"""

import string

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro import Cluster, DuplicateKeyError, ShardPolicy
from repro.distributed import (
    FaultPlan,
    FaultyTransport,
    MessageLostError,
    OpTimeoutError,
    RetryPolicy,
    ServerDownError,
    ShardUnavailableError,
    run_chaos,
)
from repro.distributed.chaos import chaos_table
from repro.distributed.messages import Op
from repro.serving import ServingFixture
from repro.storage.dedup import DedupWindow


def _counter_sum(registry, name):
    return sum(
        inst.value
        for inst in registry.instruments()
        if inst.name == name and not hasattr(inst, "set") and hasattr(inst, "value")
    )


def _faulty_cluster(plan=None, retry=None, **kwargs):
    kwargs.setdefault("shards", 2)
    return Cluster(
        faults=plan if plan is not None else FaultPlan(),
        retry=retry,
        **kwargs,
    )


# ======================================================================
# FaultPlan
# ======================================================================
class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(edges={"sideways": {"drop": 0.5}})

    def test_deterministic_schedule(self):
        a = FaultPlan(seed=7, drop=0.3, duplicate=0.2, delay=0.2)
        b = FaultPlan(seed=7, drop=0.3, duplicate=0.2, delay=0.2)
        for _ in range(200):
            da, db = a.decide("request", 0), b.decide("request", 0)
            assert (da.drop, da.duplicate, da.delay) == (
                db.drop,
                db.duplicate,
                db.delay,
            )

    def test_shard_override_beats_edge_beats_global(self):
        plan = FaultPlan(
            drop=0.1,
            edges={"reply": {"drop": 0.5}},
            shards={3: {"drop": 0.9}},
        )
        assert plan.rate("drop", "request", 0) == 0.1
        assert plan.rate("drop", "reply", 0) == 0.5
        assert plan.rate("drop", "reply", 3) == 0.9

    def test_heal_stops_everything(self):
        plan = FaultPlan(seed=1, drop=1.0)
        assert plan.decide("request", 0).drop
        plan.heal()
        assert not plan.decide("request", 0).drop
        plan.resume()
        assert plan.decide("request", 0).drop

    def test_forced_faults_consumed_first(self):
        plan = FaultPlan(seed=1)  # all rates zero
        plan.force("request", "drop")
        plan.force("request", "duplicate")
        assert plan.decide("request", 0).drop
        assert plan.decide("request", 0).duplicate
        third = plan.decide("request", 0)
        assert not (third.drop or third.duplicate or third.delay)


# ======================================================================
# Forced single faults through the full client/server stack
# ======================================================================
class TestForcedFaults:
    def test_dropped_request_is_retried_transparently(self):
        plan = FaultPlan()
        cluster = _faulty_cluster(plan)
        f = cluster.client()
        plan.force("request", "drop")
        f.insert("apple", "A")
        assert f.get("apple") == "A"
        assert f.retries_total == 1
        assert _counter_sum(cluster.registry, "dist_retries_total") == 1
        assert _counter_sum(cluster.registry, "dist_faults_total") == 1
        assert cluster.router.duplicate_applies() == 0

    def test_dropped_reply_retries_into_dedup_hit(self):
        # The dangerous case: the server applied the insert, only the
        # reply vanished. The retry must NOT raise DuplicateKeyError —
        # the dedup window replays the recorded outcome.
        plan = FaultPlan()
        cluster = _faulty_cluster(plan, durable=True)
        f = cluster.client()
        plan.force("reply", "drop")
        f.insert("apple", "A")
        assert f.get("apple") == "A"
        assert _counter_sum(cluster.registry, "dist_dedup_hits_total") == 1
        assert cluster.router.duplicate_applies() == 0

    def test_duplicated_request_applies_once(self):
        plan = FaultPlan()
        cluster = _faulty_cluster(plan)
        f = cluster.client()
        plan.force("request", "duplicate")
        f.insert("apple", "A")
        assert f.get("apple") == "A"
        assert cluster.router.duplicate_applies() == 0
        assert _counter_sum(cluster.registry, "dist_dedup_hits_total") == 1

    def test_reads_survive_duplication_without_dedup(self):
        plan = FaultPlan()
        cluster = _faulty_cluster(plan)
        f = cluster.client()
        f.insert("apple", "A")
        plan.force("request", "duplicate")
        assert f.get("apple") == "A"
        assert _counter_sum(cluster.registry, "dist_dedup_hits_total") == 0

    def test_slow_reply_times_out_then_dedups(self):
        plan = FaultPlan(delay_seconds=(2.0, 2.0))
        retry = RetryPolicy(timeout=0.5)
        cluster = _faulty_cluster(plan, retry=retry, durable=True)
        f = cluster.client()
        plan.force("reply", "delay")  # round trip 2.0 > timeout 0.5
        f.insert("apple", "A")
        assert f.get("apple") == "A"
        assert f.retries_total >= 1
        assert _counter_sum(cluster.registry, "dist_dedup_hits_total") == 1
        assert cluster.router.duplicate_applies() == 0

    def test_error_replies_are_not_deduped(self):
        cluster = _faulty_cluster(FaultPlan())
        f = cluster.client()
        f.insert("apple", "A")
        with pytest.raises(DuplicateKeyError):
            f.insert("apple", "B")
        # A *new* logical op (fresh rid) must re-raise, not replay.
        with pytest.raises(DuplicateKeyError):
            f.insert("apple", "C")
        assert f.get("apple") == "A"


# ======================================================================
# Server lifecycle
# ======================================================================
class TestCrashRecovery:
    def test_down_server_refuses_with_typed_error(self):
        cluster = _faulty_cluster(FaultPlan(), shards=1, durable=True)
        router = cluster.router
        router.crash_server(0)
        with pytest.raises(ServerDownError):
            router.client_send(0, Op.get("a"))

    def test_retry_rides_out_downtime(self):
        cluster = _faulty_cluster(FaultPlan(), shards=1, durable=True)
        f = cluster.client()
        f.insert("apple", "A")
        cluster.router.crash_server(0, downtime=0.05)
        assert f.get("apple") == "A"  # backoff sleeps past the outage
        assert f.retries_total >= 1
        assert _counter_sum(cluster.registry, "dist_server_recoveries_total") == 1

    def test_durable_crash_recovers_acknowledged_records(self):
        cluster = _faulty_cluster(
            FaultPlan(), shards=2, durable=True,
            shard_policy=ShardPolicy(shard_capacity=16),
        )
        f = cluster.client()
        keys = [
            f"key{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(60)
        ]
        for key in keys:
            f.insert(key, key.upper())
        router = cluster.router
        for shard_id in list(cluster.coordinator.servers):
            router.crash_server(shard_id)
        assert cluster.coordinator.down_shards() == sorted(
            cluster.coordinator.servers
        )
        router.restore_all()
        assert cluster.coordinator.down_shards() == []
        cluster.check()
        assert [k for k, _ in f.items()] == sorted(keys)

    def test_nondurable_crash_is_an_outage_not_data_loss(self):
        cluster = _faulty_cluster(FaultPlan(), shards=1, durable=False)
        f = cluster.client()
        f.insert("apple", "A")
        cluster.router.crash_server(0, downtime=0.01)
        assert f.get("apple") == "A"

    def test_exhausted_retries_raise_shard_unavailable(self):
        retry = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002)
        cluster = _faulty_cluster(FaultPlan(), shards=1, retry=retry)
        f = cluster.client()
        f.insert("apple", "A")
        cluster.router.crash_server(0)  # no scheduled restart
        with pytest.raises(ShardUnavailableError) as info:
            f.get("apple")
        assert isinstance(info.value.__cause__, ServerDownError)
        # Recovery clears the condition without a new client.
        cluster.coordinator.servers[0].restart()
        assert f.get("apple") == "A"

    def test_message_loss_exhaustion_chains_cause(self):
        plan = FaultPlan(edges={"request": {"drop": 1.0}})
        retry = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002)
        cluster = _faulty_cluster(plan, retry=retry, shards=1)
        f = cluster.client()
        with pytest.raises(ShardUnavailableError) as info:
            f.insert("apple", "A")
        assert isinstance(info.value.__cause__, MessageLostError)

    def test_timeout_error_is_typed_retryable(self):
        assert issubclass(OpTimeoutError, Exception)
        plan = FaultPlan(delay_seconds=(2.0, 2.0))
        retry = RetryPolicy(max_retries=1, timeout=0.1, base_delay=0.001)
        cluster = _faulty_cluster(plan, retry=retry, shards=1)
        f = cluster.client()
        plan.force("reply", "delay", count=5)
        with pytest.raises(ShardUnavailableError) as info:
            f.insert("apple", "A")
        assert isinstance(info.value.__cause__, OpTimeoutError)


# ======================================================================
# Dedup window semantics
# ======================================================================
class TestDedupWindow:
    def test_fifo_eviction(self):
        window = DedupWindow(limit=2)
        window.record((1, 1), "a")
        window.record((1, 2), "b")
        window.record((1, 3), "c")
        assert (1, 1) not in window
        assert window.lookup((1, 3)) == (True, "c")

    def test_none_rid_ignored(self):
        window = DedupWindow()
        window.record(None, "x")
        assert len(window) == 0

    def test_spec_roundtrip(self):
        window = DedupWindow()
        window.record((1, 1), None)
        window.record((2, 9), "v")
        clone = DedupWindow.from_spec(window.to_spec())
        assert clone.lookup((1, 1)) == (True, None)
        assert clone.lookup((2, 9)) == (True, "v")

    def test_split_handover_keeps_dedup_on_both_halves(self):
        # Insert through retries, then force a shard split; a late
        # duplicate delivery must still hit the window on whichever
        # half now owns the key.
        plan = FaultPlan()
        cluster = _faulty_cluster(
            plan, shards=1, durable=True,
            shard_policy=ShardPolicy(shard_capacity=8),
        )
        f = cluster.client()
        plan.force("reply", "drop")
        f.insert("zebra", "Z")  # applied; reply lost; retried -> dedup
        for key in ["apple", "bird", "cat", "dog", "emu", "fox", "gnu"]:
            f.insert(key, key.upper())  # drives a split
        assert cluster.shard_count() > 1
        # The zebra insert was the client's first mutation: rid (1, 1).
        # Every post-split half must still remember it.
        for server in cluster.coordinator.servers.values():
            assert (1, 1) in server.dedup


# ======================================================================
# The acceptance chaos run
# ======================================================================
class TestChaos:
    def test_big_differential_run(self):
        # The PR's acceptance criterion: >= 5000 mixed ops, >= 4 durable
        # shards, seeded drops + duplicates + delays, >= 3 crash/restart
        # cycles; byte-identical to the oracle, zero double-applies
        # (run_chaos raises otherwise), every fault and retry metered.
        report = run_chaos(
            ops=5000,
            shards=4,
            seed=42,
            durable=True,
            drop=0.01,
            duplicate=0.01,
            delay=0.01,
            crash_cycles=3,
            shard_capacity=256,
        )
        assert report.converged
        assert report.duplicate_applies == 0
        assert report.crashes >= 3
        assert report.recoveries >= 3
        assert report.faults > 0
        assert report.retries > 0
        assert report.dedup_hits > 0
        assert report.faults <= report.ops * 3  # sanity: metered, bounded

    def test_chaos_is_deterministic(self):
        a = run_chaos(ops=600, seed=11, crash_cycles=2, shard_capacity=128)
        b = run_chaos(ops=600, seed=11, crash_cycles=2, shard_capacity=128)
        assert a.as_dict() == b.as_dict()

    def test_chaos_is_deterministic_over_uds(self):
        a = run_chaos(
            ops=600, seed=11, crash_cycles=2, shard_capacity=128,
            transport="uds",
        )
        b = run_chaos(
            ops=600, seed=11, crash_cycles=2, shard_capacity=128,
            transport="uds",
        )
        assert a.as_dict() == b.as_dict()

    def test_chaos_with_scans(self):
        report = run_chaos(
            ops=400,
            shards=2,
            seed=5,
            drop=0.02,
            duplicate=0.02,
            crash_cycles=1,
            shard_capacity=64,
            scan_every=50,
        )
        assert report.converged

    def test_fault_free_run_injects_nothing(self):
        report = run_chaos(
            ops=300, seed=1, drop=0.0, duplicate=0.0, delay=0.0,
            crash_cycles=0, shard_capacity=64,
        )
        assert report.faults == 0
        assert report.retries == 0
        assert report.crashes == 0
        assert report.clock == 0.0

    def test_chaos_table_rows(self):
        rows = chaos_table(count=300, rates=(0.0, 0.02))
        assert [r["fault_rate"] for r in rows] == [0.0, 0.02]
        assert all(r["converged"] for r in rows)
        assert rows[0]["faults"] == 0
        assert rows[1]["faults"] > 0
        assert all(r["dup_applies"] == 0 for r in rows)


# ======================================================================
# Pinned per-seed reports: the oracle's exact counters, per transport
# ======================================================================
#: Two acceptance scenarios: the serving chaos run (seed 9: drops,
#: duplicates, delays, crash-restart cycles, scans) and the replicated
#: one (seed 7: semisync backups, two primary kills, one live
#: migration).
_PINNED_SCENARIOS = {
    "seed9": dict(
        ops=400, shards=2, seed=9, durable=True, drop=0.02,
        duplicate=0.02, delay=0.02, crash_cycles=2, shard_capacity=64,
        scan_every=80,
    ),
    "seed7": dict(
        ops=400, shards=3, seed=7, durable=True, drop=0.01,
        duplicate=0.01, delay=0.01, crash_cycles=0, shard_capacity=128,
        replication="semisync", kill_cycles=2, migrate_cycles=1,
    ),
}

#: ``ChaosReport.as_dict()`` of each scenario on each transport. Every
#: field is a deterministic function of the seed, so any change to the
#: fault injector's dice sequence, clock, restart schedule or accounting
#: moves a number here. Each transport is pinned against itself: only
#: the in-process fabric carries forward and replicate legs the plan can
#: fault, so sim and UDS differ by design.
_PINNED_REPORTS = {
    ("seed9", "sim"): dict(
        ops=400, seed=9, shards=5, records=187, faults=67, retries=39,
        dedup_hits=13, crashes=2, recoveries=2, duplicate_applies=0,
        messages=840, forwards=2, clock=0.9988788677572957,
        converged=True, kills=0, failovers=0, migrations=0,
        failover_mttr=0.0,
    ),
    ("seed9", "uds"): dict(
        ops=400, seed=9, shards=5, records=187, faults=65, retries=39,
        dedup_hits=14, crashes=2, recoveries=2, duplicate_applies=0,
        messages=839, forwards=2, clock=0.8405810432176428,
        converged=True, kills=0, failovers=0, migrations=0,
        failover_mttr=0.0,
    ),
    ("seed7", "sim"): dict(
        ops=400, seed=7, shards=3, records=228, faults=46, retries=20,
        dedup_hits=3, crashes=2, recoveries=0, duplicate_applies=0,
        messages=1516, forwards=3, clock=1.3755725234218774,
        converged=True, kills=2, failovers=2, migrations=1,
        failover_mttr=0.432061,
    ),
    ("seed7", "uds"): dict(
        ops=400, seed=7, shards=3, records=228, faults=37, retries=21,
        dedup_hits=6, crashes=2, recoveries=0, duplicate_applies=0,
        messages=881, forwards=3, clock=1.225966685989256,
        converged=True, kills=2, failovers=2, migrations=1,
        failover_mttr=0.44804,
    ),
}


class TestPinnedReports:
    @pytest.mark.parametrize("scenario,transport", sorted(_PINNED_REPORTS))
    def test_report_matches_pin(self, scenario, transport):
        report = run_chaos(
            transport=transport, **_PINNED_SCENARIOS[scenario]
        )
        assert report.as_dict() == _PINNED_REPORTS[(scenario, transport)]


# ======================================================================
# Crash-fault accounting, on both inner fabrics
# ======================================================================
class TestCrashFaultAccounting:
    @pytest.mark.parametrize("transport", ["sim", "uds"])
    def test_one_crash_fault_per_real_crash(self, transport):
        # Every delivery rolls crash=1.0, but only the first finds the
        # shard live; the rest must count as refusals, not as crashes.
        plan = FaultPlan(seed=1, crash=1.0, downtime=(5.0, 5.0))
        if transport == "sim":
            cluster = Cluster(shards=1, durable=True, faults=plan)
            fixture = None
            fabric = cluster.router
        else:
            cluster = Cluster(shards=1, durable=True)
            fixture = ServingFixture(cluster)
            _file, fabric = fixture.open_file(plan=plan)
        assert isinstance(fabric, FaultyTransport)
        try:
            for _ in range(3):
                with pytest.raises(ServerDownError):
                    fabric.client_send(0, Op.get("a"))
            crash_faults = fabric.registry.counter(
                "dist_faults_total", {"kind": "crash", "edge": "request"}
            ).value
            assert fabric.crash_cycles == 1
            assert crash_faults == fabric.crash_cycles
            assert fabric.faults_injected == 1 + 3  # one crash, 3 refusals
        finally:
            if fixture is not None:
                fixture.close()


# ======================================================================
# Hypothesis: random interleavings of ops, crashes and heals
# ======================================================================
keys_st = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)


class ChaosAgainstDict(RuleBasedStateMachine):
    """Mixed ops against a dict model while the fabric misbehaves."""

    @initialize(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.0, 0.02, 0.05]),
    )
    def setup(self, seed, rate):
        self.plan = FaultPlan(
            seed=seed, drop=rate, duplicate=rate, delay=rate,
            delay_seconds=(0.001, 0.02), downtime=(0.01, 0.05),
        )
        self.cluster = Cluster(
            shards=2,
            durable=True,
            shard_policy=ShardPolicy(shard_capacity=32),
            faults=self.plan,
            retry=RetryPolicy(max_retries=12),
        )
        self.client = self.cluster.client()
        self.model = {}

    @rule(key=keys_st, value=keys_st)
    def insert(self, key, value):
        if key in self.model:
            with pytest.raises(DuplicateKeyError):
                self.client.insert(key, value)
        else:
            self.client.insert(key, value)
            self.model[key] = value

    @rule(key=keys_st, value=keys_st)
    def put(self, key, value):
        self.client.put(key, value)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        assert self.client.delete(key) == self.model.pop(key)

    @rule(key=keys_st)
    def lookup(self, key):
        assert self.client.contains(key) == (key in self.model)

    @rule(data=st.data())
    def crash_one(self, data):
        live = [
            s for s, srv in self.cluster.coordinator.servers.items()
            if not srv.down
        ]
        if live:
            shard = data.draw(st.sampled_from(sorted(live)))
            self.cluster.router.crash_server(shard, downtime=0.02)

    def teardown(self):
        self.plan.heal()
        self.cluster.router.restore_all()
        self.cluster.check()
        assert dict(self.client.items()) == self.model
        assert self.cluster.router.duplicate_applies() == 0


TestChaosStateful = ChaosAgainstDict.TestCase
TestChaosStateful.settings = settings(deadline=None)


# ======================================================================
# Deadlines over the faulty fabric (the RetryPolicy.timeout fixes)
# ======================================================================
class TestDeadlines:
    def test_forward_leg_delay_counts_against_the_deadline(self):
        # The op reaches shard 0 promptly; the *forward* hop to the
        # owner is what stalls. The per-op deadline covers the whole
        # delivery, so the client times out and retries — previously
        # only the first hop was measured and the op hung "forever".
        plan = FaultPlan(delay_seconds=(2.0, 2.0))
        retry = RetryPolicy(timeout=0.5)
        cluster = _faulty_cluster(plan, retry=retry, shards=2, durable=True)
        cluster.client(warm=True).insert("zebra", "Z")
        f = cluster.client()  # cold: routes to shard 0, owner forwards
        plan.force("forward", "delay")
        assert f.get("zebra") == "Z"
        assert f.retries_total == 1
        counter = cluster.registry.counter(
            "dist_retries_total", {"op": "get", "reason": "OpTimeoutError"}
        )
        assert counter.value == 1
        assert cluster.router.duplicate_applies() == 0

    def test_timeout_retry_rederives_shard_from_patched_image(self):
        # Attempt 1 forwards to the owner, applies, and times out on
        # the slow reply. Between attempts the image learns the true
        # cut (patched during the backoff); the retry must re-derive
        # the shard and go *direct* — one forward total, and the
        # duplicate delivery dies in the owner's dedup window.
        plan = FaultPlan(delay_seconds=(2.0, 2.0))
        retry = RetryPolicy(timeout=0.5)
        cluster = _faulty_cluster(plan, retry=retry, shards=2, durable=True)
        f = cluster.client()
        router = cluster.router
        original_sleep = router.sleep

        def learning_sleep(seconds):
            f.image.patch(cluster.coordinator.iam_for_key("zebra"))
            original_sleep(seconds)

        router.sleep = learning_sleep
        plan.force("reply", "delay")
        f.insert("zebra", "Z")
        assert router.forwards == 1  # attempt 2 went direct
        assert _counter_sum(cluster.registry, "dist_dedup_hits_total") == 1
        counter = cluster.registry.counter(
            "dist_retries_total", {"op": "insert", "reason": "OpTimeoutError"}
        )
        assert counter.value == 1
        assert router.duplicate_applies() == 0
        assert f.get("zebra") == "Z"


# ======================================================================
# Batch routing under a wedged image
# ======================================================================
class TestBatchWedge:
    def test_no_progress_error_samples_keys_and_chains_cause(self):
        # A permanently down shard parks its leg's keys every round;
        # once no round shrinks the batch, the guard must surface a
        # diagnosable error: which keys never placed, and why the last
        # leg failed.
        retry = RetryPolicy(max_retries=1, base_delay=0.001, max_delay=0.002)
        cluster = _faulty_cluster(FaultPlan(), retry=retry, shards=2)
        f = cluster.client(warm=True)
        keys = ["apple", "bird", "yak", "zebra"]
        for key in keys:
            f.insert(key, key.upper())
        cluster.router.crash_server(1)  # owner of the upper region; no restart
        with pytest.raises(ShardUnavailableError) as info:
            f.get_many(keys)
        message = str(info.value)
        assert "no routing progress" in message
        assert "unplaced" in message
        assert "'yak'" in message and "'zebra'" in message
        assert "'apple'" not in message  # placed legs are not in the sample
        assert isinstance(info.value.__cause__, ShardUnavailableError)
        assert isinstance(info.value.__cause__.__cause__, ServerDownError)
