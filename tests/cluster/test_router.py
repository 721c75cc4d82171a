"""Unit tests for the cluster router: fan-out, migration, hooks."""

import numpy as np
import pytest

from repro.cluster import ClusterRouter, ShardMap, ShardServingError
from repro.data.keyset import Domain
from repro.workload import make_backend


@pytest.fixture()
def setup():
    domain = Domain.of_size(4_000)
    rng = np.random.default_rng(3)
    keys = np.sort(rng.choice(domain.size, size=400, replace=False))
    shard_map = ShardMap.balanced(keys, 4, domain)
    return domain, keys, shard_map


class TestFanOut:
    def test_lookup_matches_single_backend(self, setup):
        """Sharding must not change what is found, and per-key probes
        must equal each key's own shard backend serving it alone."""
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "rmi", model_size=50)
        misses = np.setdiff1d(keys[::7] + 1, keys)
        queries = np.concatenate([keys[::7], misses])
        found, probes = router.lookup_batch(queries)
        assert found[:keys[::7].size].all()
        assert not found[keys[::7].size:].any()

        shards = shard_map.route(queries)
        for shard in range(shard_map.n_shards):
            mask = shards == shard
            solo = make_backend(
                "rmi", keys[shard_map.route(keys) == shard],
                model_size=50)
            f, p = solo.lookup_batch(queries[mask])
            assert np.array_equal(f, found[mask])
            assert np.array_equal(p, probes[mask])

    def test_batch_equals_one_at_a_time(self, setup):
        domain, keys, shard_map = setup
        a = ClusterRouter(shard_map, keys, "binary")
        b = ClusterRouter(shard_map, keys, "binary")
        queries = keys[::5]
        found_a, probes_a = a.lookup_batch(queries)
        found_b = np.zeros(queries.size, dtype=bool)
        probes_b = np.zeros(queries.size, dtype=np.int64)
        for i, key in enumerate(queries):
            f, p = b.lookup_batch(key[np.newaxis])
            found_b[i], probes_b[i] = f[0], p[0]
        assert np.array_equal(found_a, found_b)
        assert np.array_equal(probes_a, probes_b)

    def test_mutations_route_to_one_shard(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        lo, hi = shard_map.shard_range(2)
        fresh = np.asarray([lo + 1], dtype=np.int64)
        assert not router.lookup_batch(fresh)[0][0]
        router.insert_batch(fresh)
        assert router.lookup_batch(fresh)[0][0]
        router.delete_batch(fresh)
        assert not router.lookup_batch(fresh)[0][0]

    def test_tick_loads_and_imbalance(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        router.drain_tick_loads()
        lo, hi = shard_map.shard_range(1)
        hot = keys[(keys >= lo) & (keys <= hi)]
        router.lookup_batch(hot)
        loads = router.drain_tick_loads()
        assert loads[1] == hot.size
        assert loads.sum() == hot.size
        assert ClusterRouter.imbalance(loads) == pytest.approx(4.0)
        assert ClusterRouter.imbalance(np.zeros(4)) == 1.0
        # Drained: a second drain sees an idle tick.
        assert ClusterRouter.imbalance(router.drain_tick_loads()) == 1.0

    def test_range_scan_spans_shards(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        lo = shard_map.shard_range(0)[1] - 1
        hi = shard_map.shard_range(1)[0] + 1
        cost = router.range_scan(lo, hi)
        assert cost > 0
        loads = router.drain_tick_loads()
        assert loads[0] == 1 and loads[1] == 1


class TestEmptyShards:
    def test_keyless_range_serves_misses_without_phantoms(self):
        """An empty shard is unprovisioned — no fabricated key is
        ever served or exported into migration pools."""
        domain = Domain.of_size(1_000)
        keys = np.arange(500, 600, dtype=np.int64)
        shard_map = ShardMap(domain.lo, domain.hi, (500,))
        router = ClusterRouter(shard_map, keys, "binary")
        assert router.shard(0) is None
        found, probes = router.lookup_batch(
            np.asarray([0, 499, 550], dtype=np.int64))
        assert found.tolist() == [False, False, True]
        assert probes[0] == 0  # zero-cost miss, no phantom hit
        assert router.n_keys == keys.size
        assert router.live_keys().tolist() == keys.tolist()

    def test_first_insert_provisions_the_shard(self):
        domain = Domain.of_size(1_000)
        keys = np.arange(500, 600, dtype=np.int64)
        router = ClusterRouter(ShardMap(domain.lo, domain.hi, (500,)),
                               keys, "binary")
        router.insert_batch(np.asarray([7], dtype=np.int64))
        assert router.shard(0) is not None
        assert router.lookup_batch(np.asarray([7]))[0][0]
        assert router.n_keys == keys.size + 1

    def test_migration_through_an_empty_shard_stays_clean(self):
        domain = Domain.of_size(1_000)
        keys = np.arange(500, 600, dtype=np.int64)
        router = ClusterRouter(ShardMap(domain.lo, domain.hi, (500,)),
                               keys, "binary")
        moved = router.apply_map(ShardMap(domain.lo, domain.hi))
        assert moved == keys.size
        assert router.live_keys().tolist() == keys.tolist()


class TestMigration:
    def test_split_moves_only_that_shard(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        counts = router.shard_n_keys()
        moved = router.split_shard(1)
        assert moved == counts[1]
        assert router.n_shards == 5
        assert router.n_keys == keys.size
        # Everything still found after the migration.
        found, _ = router.lookup_batch(keys)
        assert found.all()

    def test_merge_moves_both_halves(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        counts = router.shard_n_keys()
        moved = router.merge_shards(2)
        assert moved == counts[2] + counts[3]
        assert router.n_shards == 3
        found, _ = router.lookup_batch(keys)
        assert found.all()

    def test_untouched_shards_keep_their_state(self, setup):
        """A rebalance must not silently reset the rest of the
        cluster: shard 0's pending delta survives a split of shard 2."""
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "rmi",
                               rebuild_threshold=0.9, model_size=50)
        lo, _ = shard_map.shard_range(0)
        fresh = np.asarray([k for k in range(lo, lo + 40)
                            if k not in set(keys.tolist())][:5],
                           dtype=np.int64)
        router.insert_batch(fresh)
        assert router.shard(0).pending_updates == fresh.size
        before = router.shard(0)
        router.split_shard(2)
        assert router.shard(0) is before
        assert router.shard(0).pending_updates == fresh.size

    def test_migration_inherits_defense_settings(self, setup):
        """Splitting a defended shard rebuilds through the tuned TRIM
        screen — quarantined keys stay quarantined, never laundered
        into the new models."""
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "rmi", model_size=50)
        router.set_shard_trim_keep_fraction(1, 0.8)
        router.set_shard_rebuild_threshold(1, 0.7)
        router.split_shard(1)
        # The two shards born from shard 1 carry its settings...
        for shard in (1, 2):
            assert router.shard(shard).trim_keep_fraction == 0.8
            assert router.shard(shard).rebuild_threshold == 0.7
            # ...and their migration rebuild screened: rejects sit in
            # quarantine, still served.
            assert router.shard(shard).quarantine_size > 0
        found, _ = router.lookup_batch(keys)
        assert found.all()
        # Unrelated shards keep the construction defaults.
        assert router.shard(0).trim_keep_fraction is None

    def test_migration_accounting_is_cumulative(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        a = router.split_shard(0)
        b = router.merge_shards(0)
        assert router.keys_migrated_total == a + b

    def test_retrain_counter_monotone_across_migration(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "rmi",
                               rebuild_threshold=0.01, model_size=50)
        lo, _ = shard_map.shard_range(0)
        taken = set(keys.tolist())
        fresh = np.asarray([k for k in range(lo, lo + 200)
                            if k not in taken][:10], dtype=np.int64)
        for key in fresh:
            router.insert_batch(key[np.newaxis])
        before = router.retrain_count
        assert before > 0
        router.split_shard(0)
        assert router.retrain_count >= before

    def test_rejects_foreign_domain_map(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")
        with pytest.raises(ValueError, match="same domain"):
            router.apply_map(ShardMap(0, domain.hi + 5))


class TestDynamicMigration:
    def test_dynamic_split_screens_via_its_own_quarantine(self, setup):
        """The dynamic backend's migration rebuild screens through its
        index-owned quarantine (the generic list is invisible to its
        lookups), so quarantined keys still resolve."""
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "dynamic",
                               model_size=50)
        router.set_shard_trim_keep_fraction(1, 0.8)
        router.split_shard(1)
        assert router.shard(1).quarantine_size > 0
        found, _ = router.lookup_batch(keys)
        assert found.all()


class TestFanOutErrors:
    """A shard failing mid-replay surfaces as one ShardServingError
    naming the shard — not a bare exception that loses which range
    failed."""

    @pytest.fixture()
    def broken_router(self, setup):
        domain, keys, shard_map = setup
        router = ClusterRouter(shard_map, keys, "binary")

        def explode(kinds, keys, aux):
            raise RuntimeError("disk on fire")

        router.shard(2).replay_ops = explode
        n = keys.size
        kinds = np.zeros(n, dtype=np.int8)  # all queries
        return router, kinds, keys, np.zeros(n, dtype=np.int64)

    def test_error_names_the_failing_shard(self, broken_router):
        router, kinds, keys, aux = broken_router
        with pytest.raises(ShardServingError,
                           match="shard 2: RuntimeError") as err:
            router.replay_ops(kinds, keys, aux)
        assert err.value.shard == 2

    def test_healthy_shards_unaffected_after_the_error(
            self, broken_router):
        router, kinds, keys, aux = broken_router
        with pytest.raises(ShardServingError):
            router.replay_ops(kinds, keys, aux)
        shards = router.shard_map.route(keys)
        healthy = keys[shards != 2]
        found, _ = router.lookup_batch(healthy)
        assert found.all()
