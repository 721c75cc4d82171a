"""A ``dynamic`` backend that drops TRIM's rejects keeps no tombstone
for a key its index no longer holds.

With ``quarantine_rejects=False`` an index retrain drops the keys the
screen rejects, tombstoned ones among them.  The backend then keeps
only the tombstones the retrained index still holds, at the retrain's
own op on both replay arms, so ``n_keys`` counts the live set and a
re-inserted key is stored again.
"""

import numpy as np

from replay_oracle import op_by_op
from repro.workload import OP_DELETE, OP_INSERT, OP_QUERY, make_backend

DELETED = np.arange(0, 100, 10)  # ten of the 100 base keys
FRESH = np.arange(1, 101, 2)     # the 50th fresh insert retrains


def dynamic():
    return make_backend("dynamic", np.arange(0, 1000, 10),
                        rebuild_threshold=0.5, trim_keep_fraction=0.8,
                        quarantine_rejects=False, model_size=7)


def test_insert_batch_keeps_only_held_tombstones():
    backend = dynamic()
    backend.delete_batch(DELETED)
    for key in FRESH:
        backend.insert_batch(key[np.newaxis])
    assert backend.retrain_count == 1
    index = backend._index
    dropped = np.setdiff1d(DELETED, np.union1d(index.rmi.store.keys,
                                               index.quarantine_keys))
    assert dropped.tolist() == [0, 10, 20, 60, 70]
    assert backend.n_keys == backend.live_keys().size == 115
    assert backend.pending_updates == DELETED.size - dropped.size
    backend.insert_batch(np.asarray([0]))
    assert backend.n_keys == backend.live_keys().size == 116
    assert backend.lookup_batch(np.asarray([0]))[0].all()


def test_replay_matches_the_oracle():
    """The retrain slice and the re-insert slice, each replayed whole
    (the second apart from the first: a slice that deletes and
    inserts one key falls back to the scalar walk)."""
    slices = (
        (np.r_[np.full(DELETED.size, OP_DELETE),
               np.full(FRESH.size, OP_INSERT)], np.r_[DELETED, FRESH]),
        (np.asarray([OP_INSERT, OP_QUERY]), np.asarray([0, 0])),
    )
    columnar, reference = dynamic(), op_by_op(dynamic())
    for backend in (columnar, reference):
        for kinds, keys in slices:
            found, _ = backend.replay_ops(kinds.astype(np.int8), keys,
                                          np.zeros(keys.size, np.int64))
        assert found.tolist() == [True]
        assert backend.retrain_count == 1
        assert backend.n_keys == backend.live_keys().size == 116
    assert columnar.state_digest() == reference.state_digest()
