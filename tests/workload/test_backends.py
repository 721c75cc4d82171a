"""Unit tests for the serving backends' uniform online surface."""

import numpy as np
import pytest

from repro.data.keyset import Domain
from repro.data.synthetic import uniform_keyset
from repro.workload import BACKENDS, OP_DELETE, make_backend

ALL = sorted(BACKENDS)
LEARNED = ("linear", "rmi", "dynamic")


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(81)
    return uniform_keyset(800, Domain.of_size(8_000), rng).keys


@pytest.fixture(scope="module")
def fresh(keys):
    rng = np.random.default_rng(82)
    return np.setdiff1d(rng.integers(0, 8_000, size=600), keys)[:200]


@pytest.mark.parametrize("name", ALL)
class TestUniformSurface:
    def test_every_base_key_found(self, name, keys):
        backend = make_backend(name, keys)
        found, probes = backend.lookup_batch(keys)
        assert found.all()
        assert (probes >= 1).all()
        assert backend.n_keys == keys.size

    def test_absent_keys_not_found(self, name, keys, fresh):
        backend = make_backend(name, keys)
        found, _ = backend.lookup_batch(fresh)
        assert not found.any()

    def test_insert_then_found(self, name, keys, fresh):
        backend = make_backend(name, keys)
        backend.insert_batch(fresh[:50])
        found, _ = backend.lookup_batch(fresh[:50])
        assert found.all()
        assert backend.n_keys == keys.size + 50

    def test_delete_then_missing(self, name, keys):
        backend = make_backend(name, keys)
        victims = keys[::37]
        backend.delete_batch(victims)
        found, _ = backend.lookup_batch(victims)
        assert not found.any()
        assert backend.n_keys == keys.size - victims.size
        # Neighbours survive.
        survivors = np.setdiff1d(keys, victims)
        found, _ = backend.lookup_batch(survivors)
        assert found.all()

    def test_reinsert_after_delete_revives(self, name, keys):
        backend = make_backend(name, keys)
        victim = keys[100:101]
        backend.delete_batch(victim)
        backend.insert_batch(victim)
        found, _ = backend.lookup_batch(victim)
        assert found.all()
        assert backend.n_keys == keys.size

    def test_range_scan_charges_probes(self, name, keys):
        backend = make_backend(name, keys)
        assert backend.range_scan(int(keys[10]), int(keys[20])) >= 1

    def test_error_bound_positive(self, name, keys):
        assert make_backend(name, keys).error_bound() >= 1.0


class TestRebuildCycle:
    @pytest.mark.parametrize("name", LEARNED)
    def test_update_pressure_triggers_retrain(self, name, keys, fresh):
        backend = make_backend(name, keys, rebuild_threshold=0.05)
        before = backend.retrain_count
        backend.insert_batch(fresh)  # 200 fresh >> 5% of 800
        assert backend.retrain_count > before
        found, _ = backend.lookup_batch(np.concatenate([keys, fresh]))
        assert found.all()

    def test_btree_inserts_natively_without_rebuild(self, keys, fresh):
        backend = make_backend("btree", keys)
        backend.insert_batch(fresh)
        assert backend.retrain_count == 0
        found, _ = backend.lookup_batch(fresh)
        assert found.all()

    @pytest.mark.parametrize("name", LEARNED + ("btree",))
    def test_delete_pressure_compacts(self, name, keys):
        backend = make_backend(name, keys, rebuild_threshold=0.05)
        backend.delete_batch(keys[:100])
        assert backend.retrain_count >= 1
        assert backend.pending_updates == 0
        found, _ = backend.lookup_batch(keys[100:])
        assert found.all()


class TestBinaryNeverRetrains:
    def test_no_rebuilds_ever(self, keys, fresh):
        backend = make_backend("binary", keys)
        backend.insert_batch(fresh)
        backend.delete_batch(keys[:300])
        assert backend.retrain_count == 0


@pytest.mark.parametrize("name", LEARNED)
class TestTrimDefense:
    def test_quarantine_filled_and_still_served(self, name, keys,
                                                fresh):
        backend = make_backend(name, keys, rebuild_threshold=0.1,
                               trim_keep_fraction=0.9)
        backend.insert_batch(fresh)  # forces >= 1 sanitized rebuild
        assert backend.retrain_count >= 1
        assert backend.quarantine_size > 0
        # Correctness is untouched: every live key answers.
        found, _ = backend.lookup_batch(np.concatenate([keys, fresh]))
        assert found.all()

    def test_invalid_keep_fraction_rejected(self, name, keys):
        with pytest.raises(ValueError, match="keep fraction"):
            make_backend(name, keys, trim_keep_fraction=0.0)


class TestTrimUnsupported:
    @pytest.mark.parametrize("name", ("binary", "btree"))
    def test_model_free_backends_reject_trim(self, name, keys):
        with pytest.raises(ValueError, match="TRIM"):
            make_backend(name, keys, trim_keep_fraction=0.9)


@pytest.mark.parametrize("name", ALL)
class TestInsertAccounting:
    """ISSUE 4 satellite: live-key accounting under re-insertion.

    Upsert semantics everywhere: inserting a key that is already live
    (model, delta buffer, or quarantine) is a no-op — it must never
    inflate ``n_keys`` nor count twice against the rebuild threshold.
    """

    def test_duplicate_insert_of_model_key_is_noop(self, name, keys):
        backend = make_backend(name, keys)
        backend.insert_batch(keys[:10])
        assert backend.n_keys == keys.size
        assert backend.pending_updates == 0

    def test_reinsert_while_still_in_delta_not_double_counted(
            self, name, keys, fresh):
        backend = make_backend(name, keys)
        backend.insert_batch(fresh[:5])
        assert backend.pending_updates == (5 if name in LEARNED else 0)
        backend.insert_batch(fresh[:5])  # same keys again
        assert backend.n_keys == keys.size + 5
        assert backend.pending_updates == (5 if name in LEARNED else 0)
        found, _ = backend.lookup_batch(fresh[:5])
        assert found.all()

    def test_revive_clears_the_tombstone_from_pending(self, name,
                                                      keys):
        backend = make_backend(name, keys)
        victim = keys[42:43]
        backend.delete_batch(victim)
        backend.insert_batch(victim)
        assert backend.pending_updates == 0
        assert backend.n_keys == keys.size
        # A second delete+revive cycle stays consistent.
        backend.delete_batch(victim)
        backend.insert_batch(victim)
        assert backend.n_keys == keys.size


class TestQuarantineAccounting:
    @pytest.mark.parametrize("name", LEARNED)
    def test_insert_of_quarantined_key_is_noop(self, name, keys,
                                               fresh):
        backend = make_backend(name, keys, rebuild_threshold=0.1,
                               trim_keep_fraction=0.9)
        backend.insert_batch(fresh)
        assert backend.quarantine_size > 0
        live_before = backend.n_keys
        if name == "dynamic":
            quarantined = backend._index.quarantine_keys[:5]
        else:
            quarantined = backend._quarantine[:5]
        backend.insert_batch(np.asarray(quarantined))
        assert backend.n_keys == live_before

    @pytest.mark.parametrize("name", LEARNED)
    def test_quarantined_keys_rejoin_candidacy_at_next_rebuild(
            self, name, keys, fresh):
        """Pins the *rehabilitation* contract: quarantine is a holding
        pen, not a blacklist — disarming TRIM returns every
        quarantined key to the model at the next rebuild, with no key
        lost or duplicated along the way."""
        backend = make_backend(name, keys, rebuild_threshold=0.1,
                               trim_keep_fraction=0.9)
        backend.insert_batch(fresh)
        assert backend.quarantine_size > 0
        live_before = backend.n_keys
        backend.set_trim_keep_fraction(None)
        backend.insert_batch(
            np.arange(20_000, 20_000 + 120, dtype=np.int64))
        assert backend.quarantine_size == 0
        assert backend.n_keys == live_before + 120
        found, _ = backend.lookup_batch(np.concatenate([keys, fresh]))
        assert found.all()


class TestTunerHooks:
    @pytest.mark.parametrize("name", ALL)
    def test_threshold_setter_validates_and_applies(self, name, keys):
        backend = make_backend(name, keys)
        backend.set_rebuild_threshold(0.25)
        assert backend.rebuild_threshold == 0.25
        with pytest.raises(ValueError, match="threshold"):
            backend.set_rebuild_threshold(0.0)

    @pytest.mark.parametrize("name", LEARNED)
    def test_lowering_threshold_never_rebuilds_on_the_spot(self, name,
                                                           keys,
                                                           fresh):
        backend = make_backend(name, keys, rebuild_threshold=0.9)
        backend.insert_batch(fresh[:30])  # pending, far below 90%
        before = backend.retrain_count
        backend.set_rebuild_threshold(0.01)  # now far above threshold
        assert backend.retrain_count == before
        backend.insert_batch(fresh[30:31])  # next mutation trips it
        assert backend.retrain_count > before

    @pytest.mark.parametrize("name", LEARNED)
    def test_trim_setter_arms_the_next_rebuild(self, name, keys,
                                               fresh):
        backend = make_backend(name, keys, rebuild_threshold=0.1)
        assert backend.trim_keep_fraction is None
        backend.set_trim_keep_fraction(0.9)
        assert backend.trim_keep_fraction == 0.9
        backend.insert_batch(fresh)  # forces a sanitized rebuild
        assert backend.quarantine_size > 0

    def test_dynamic_forwards_threshold_to_the_index(self, keys):
        backend = make_backend("dynamic", keys)
        backend.set_rebuild_threshold(0.5)
        assert backend._index.retrain_threshold == 0.5

    @pytest.mark.parametrize("name", ("binary", "btree"))
    def test_model_free_setter_rejects_numeric_keep(self, name, keys):
        backend = make_backend(name, keys)
        backend.set_trim_keep_fraction(None)  # disarm is always legal
        with pytest.raises(ValueError, match="TRIM"):
            backend.set_trim_keep_fraction(0.9)

    @pytest.mark.parametrize("name", LEARNED)
    def test_invalid_keep_fraction_rejected_by_setter(self, name,
                                                      keys):
        backend = make_backend(name, keys)
        with pytest.raises(ValueError, match="keep fraction"):
            backend.set_trim_keep_fraction(1.5)


class TestRegistry:
    def test_unknown_backend_rejected(self, keys):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("skiplist", keys)

    def test_registry_names_match_classes(self):
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_invalid_threshold_rejected(self, keys):
        with pytest.raises(ValueError, match="threshold"):
            make_backend("rmi", keys, rebuild_threshold=0.0)

    @pytest.mark.parametrize("name", ALL)
    def test_unknown_build_argument_rejected_by_name(self, name, keys):
        """A misspelt build argument is neither silently kept nor a
        bare TypeError: the error names the backend, the argument and
        the arguments the backend does take."""
        with pytest.raises(ValueError) as err:
            make_backend(name, keys, modle_size=100)
        known = sorted(BACKENDS[name].build_defaults)
        assert str(err.value) == (
            f"backend {name!r} takes no build argument 'modle_size'; "
            f"known: {known}")

    @pytest.mark.parametrize("name, arg, value", (
        ("btree", "min_degree", 4), ("rmi", "model_size", 25),
        ("dynamic", "model_size", 25)))
    def test_declared_build_argument_shapes_the_structure(
            self, name, arg, value, keys):
        assert BACKENDS[name].build_defaults[arg] != value
        assert make_backend(name, keys, **{arg: value}).error_bound() \
            != make_backend(name, keys).error_bound()


class TestDynamicFold:
    @pytest.mark.parametrize("replay", (False, True))
    def test_tombstone_fold_keeps_crafted_keys_out_of_the_model(
            self, replay):
        """The dynamic backend's tombstone fold rebuilds through the
        TRIM screen, on the batch surface and in ``replay_ops``: a
        crafted cluster the screen rejects does not rejoin the model
        when deletes trip the fold."""
        keys = np.arange(0, 40_000, 40, dtype=np.int64)
        crafted = np.setdiff1d(np.arange(20_001, 20_061), keys)
        backend = make_backend("dynamic", keys, rebuild_threshold=0.05,
                               trim_keep_fraction=0.9)
        backend.insert_batch(crafted)
        assert backend.quarantine_size == 105
        retrains = backend.retrain_count
        if replay:
            backend.replay_ops(np.full(60, OP_DELETE, dtype=np.int8),
                               keys[:60], np.zeros(60, dtype=np.int64))
        else:
            backend.delete_batch(keys[:60])
        assert backend.retrain_count == retrains + 1  # the fold ran
        assert backend.quarantine_size > 0
        assert not np.isin(crafted, backend._index.rmi.store.keys).any()
        found, _ = backend.lookup_batch(crafted)
        assert found.all()
