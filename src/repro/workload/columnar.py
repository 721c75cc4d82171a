"""Columnar replay machinery: sequential-exact batch application.

Fed one operation at a time, a backend fires its rebuild threshold at
the exact op index where pending updates cross it (the op-exact
retrain contract every recorded series depends on).  The columnar
``replay_ops`` keeps that contract while applying a whole tick at
once; this module holds its backend-agnostic machinery:

* :func:`decompose_ops` splits an op slice into *read slots* (queries
  and range endpoints, in op order) and *mutation sub-ops* (one per
  insert/poison/delete, two per modify — delete then insert), each
  tagged with its op index;
* :func:`sorted_member`, :func:`first_occurrence` — the vectorized
  membership/classification primitives the backends use to predict,
  per sub-op, exactly what the scalar single-key call would have done
  to their state (and therefore where the rebuild threshold crosses);
* :func:`sorted_insert`, :func:`sorted_remove` — ``union1d`` /
  ``setdiff1d`` on an already-sorted-unique array without the
  re-sort, so side tables stay bit-identical to the scalar arrays at
  a fraction of the cost (the one insert and the one delete are
  :func:`~repro.index.batch.merge_disjoint` and
  :func:`~repro.index.batch.drop_sorted`, which retrains call
  directly);
* :class:`SideTable`, :func:`table_moves`, :func:`search_probes` —
  a segment's reads answered against each side table *as it stood at
  the read's op*, while the segment's effects are applied once.

Equivalence contract
--------------------
The per-sub-op classification is only valid while a key's fate does
not depend on *earlier sub-ops of the other kind* in the same slice:
:attr:`TickOps.hazard` detects a key that is both inserted and
deleted in one slice, and every backend falls back to the per-sub-op
scalar walk for such slices.  Everything else — first-occurrence
rules, threshold-crossing splits, the as-of read adjustment — is
pinned bit-identical to the op-by-op oracle of
``tests/replay_oracle.py`` by the parity suites
(``tests/*/test*_columnar_parity.py``) and the as-of property of
``tests/workload/test_segment_body.py``; inside a backend,
``ServingBackend._replay_scalar`` is that walk over sub-ops.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..contracts import (
    WIRE_HEADER as _WIRE_HEADER,
    WIRE_MAGIC,
    WIRE_VERSION,
    ContractViolation,
)
from ..index.batch import drop_sorted, merge_disjoint, path_probes
from .trace import (
    OP_DELETE,
    OP_INSERT,
    OP_MODIFY,
    OP_POISON,
    OP_QUERY,
    OP_RANGE,
)

__all__ = [
    "TickOps", "decompose_ops", "sorted_member", "first_occurrence",
    "sorted_insert", "sorted_remove",
    "sorted_insert_unique", "sorted_remove_present",
    "SideTable", "TableMoves", "table_moves", "prefix_less_sums",
    "search_probes",
    "EFF_NOOP", "EFF_REVIVE", "EFF_FRESH", "EFF_DROP_DELTA",
    "EFF_DROP_QUAR", "EFF_TOMB",
    "WIRE_VERSION", "encode_event_batch", "decode_event_batch",
]

#: What the scalar single-key call would do to the generic side
#: tables: nothing, un-tombstone, buffer a fresh key, drop a buffered
#: key, drop a quarantined key, tombstone a model-resident key.
EFF_NOOP, EFF_REVIVE, EFF_FRESH, EFF_DROP_DELTA, EFF_DROP_QUAR, \
    EFF_TOMB = range(6)


class TickOps(NamedTuple):
    """One op slice, decomposed for columnar replay.

    Read slots align with the slice's query/range ops in op order (a
    range contributes its ``lo`` endpoint — the only part of a range
    the cost model charges).  Mutation sub-ops are single-key
    insert/delete steps in op order; a modify contributes its delete
    then its insert under the same op index, so a rebuild between the
    two halves lands exactly where the scalar path puts it.
    """

    read_pos: np.ndarray
    read_keys: np.ndarray
    read_is_query: np.ndarray
    sub_ins: np.ndarray
    sub_key: np.ndarray
    sub_pos: np.ndarray

    @property
    def hazard(self) -> bool:
        """A key both inserted and deleted in this slice.

        Classification against the slice-start state cannot see a key
        change camps mid-slice (a delete tombstoning a key flips a
        later insert from duplicate to revival, and vice versa), so
        such slices replay on the scalar walk instead.
        """
        ins = self.sub_key[self.sub_ins]
        dels = self.sub_key[~self.sub_ins]
        return bool(ins.size and dels.size
                    and np.intersect1d(ins, dels).size)


def decompose_ops(kinds: np.ndarray, keys: np.ndarray,
                  aux: np.ndarray) -> TickOps:
    """Split an op slice into read slots and mutation sub-ops."""
    kinds = np.asarray(kinds)
    keys = np.asarray(keys, dtype=np.int64)
    aux = np.asarray(aux, dtype=np.int64)
    is_read = (kinds == OP_QUERY) | (kinds == OP_RANGE)
    is_ins = (kinds == OP_INSERT) | (kinds == OP_POISON)
    is_del = kinds == OP_DELETE
    is_mod = kinds == OP_MODIFY
    known = is_read | is_ins | is_del | is_mod
    if not known.all():
        bad = kinds[~known][0]
        raise ValueError(f"unknown op kind: {bad}")

    read_pos = np.nonzero(is_read)[0]
    mut_pos = np.nonzero(is_ins | is_del | is_mod)[0]
    counts = np.where(is_mod[mut_pos], 2, 1)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64),
                              np.cumsum(counts)])
    total = int(offsets[-1])
    sub_ins = np.zeros(total, dtype=bool)
    sub_key = np.zeros(total, dtype=np.int64)
    sub_pos = np.repeat(mut_pos, counts)
    first = offsets[:-1]
    sub_ins[first] = is_ins[mut_pos]
    sub_key[first] = keys[mut_pos]
    mod_of_mut = is_mod[mut_pos]
    second = first[mod_of_mut] + 1
    sub_ins[second] = True
    sub_key[second] = aux[mut_pos[mod_of_mut]]
    return TickOps(read_pos=read_pos, read_keys=keys[read_pos],
                   read_is_query=kinds[read_pos] == OP_QUERY,
                   sub_ins=sub_ins, sub_key=sub_key, sub_pos=sub_pos)


# The REVB wire layout itself is declared once in
# :mod:`repro.contracts` (WIRE_MAGIC / WIRE_VERSION / WIRE_HEADER);
# this module owns the encode/decode implementation and re-exports
# the constants for its established importers.


def encode_event_batch(kinds: np.ndarray, keys: np.ndarray,
                       aux: np.ndarray) -> bytes:
    """Serialize one op slice into the versioned columnar wire form."""
    kinds = np.ascontiguousarray(kinds, dtype="<i1")
    keys = np.ascontiguousarray(keys, dtype="<i8")
    aux = np.ascontiguousarray(aux, dtype="<i8")
    if not (kinds.size == keys.size == aux.size):
        raise ValueError(
            "event batch columns must align: "
            f"{kinds.size}/{keys.size}/{aux.size}")
    return (_WIRE_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, kinds.size)
            + kinds.tobytes() + keys.tobytes() + aux.tobytes())


def decode_event_batch(payload: bytes,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deserialize :func:`encode_event_batch` output.

    Returns fresh (writable) ``(kinds, keys, aux)`` arrays; raises
    ``ValueError`` on a bad magic, a version mismatch, or a truncated
    payload.
    """
    if len(payload) < _WIRE_HEADER.size:
        raise ContractViolation(
            f"event batch truncated: {len(payload)} bytes")
    magic, version, count = _WIRE_HEADER.unpack_from(payload)
    if magic != WIRE_MAGIC:
        raise ContractViolation(
            f"bad event batch magic: {magic!r}")
    if version != WIRE_VERSION:
        raise ContractViolation(
            f"event batch wire version {version} != "
            f"supported {WIRE_VERSION}")
    expected = _WIRE_HEADER.size + count * (1 + 8 + 8)
    if len(payload) != expected:
        raise ContractViolation(
            f"event batch length {len(payload)} != expected "
            f"{expected} for {count} events")
    off = _WIRE_HEADER.size
    kinds = np.frombuffer(payload, dtype="<i1", count=count,
                          offset=off).astype(np.int8)
    off += count
    keys = np.frombuffer(payload, dtype="<i8", count=count,
                         offset=off).astype(np.int64)
    off += 8 * count
    aux = np.frombuffer(payload, dtype="<i8", count=count,
                        offset=off).astype(np.int64)
    return kinds, keys, aux


def sorted_member(sorted_arr: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in a sorted unique array."""
    if sorted_arr.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    idx = np.searchsorted(sorted_arr, keys)
    idx[idx == sorted_arr.size] = sorted_arr.size - 1
    return sorted_arr[idx] == keys


def first_occurrence(keys: np.ndarray) -> np.ndarray:
    """True at the first occurrence of each distinct value."""
    mask = np.zeros(keys.size, dtype=bool)
    mask[np.unique(keys, return_index=True)[1]] = True
    return mask


def sorted_insert(arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``union1d(arr, values)`` without re-sorting a sorted ``arr``.

    One position scan plus one memmove instead of a full sort —
    identical output array, which is what keeps columnar side tables
    bit-equal to the scalar ones.
    """
    if values.size == 0:
        return arr
    fresh = np.unique(values)
    return merge_disjoint(arr, fresh[~sorted_member(arr, fresh)])


def sorted_remove(arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``setdiff1d(arr, values)`` without re-sorting a sorted ``arr``."""
    return drop_sorted(arr, values)


def sorted_insert_unique(arr: np.ndarray,
                         values: np.ndarray) -> np.ndarray:
    """:func:`sorted_insert` for values already unique and absent.

    First-occurrence classification guarantees exactly that for the
    per-effect key groups (an ``EFF_FRESH`` key is by construction
    distinct and not in the delta, a tombstone candidate not in the
    tombs, ...), so the dedup-and-membership prefilter of the generic
    version is pure overhead there.  Callers own the precondition;
    violating it silently produces a non-unique table.
    """
    return merge_disjoint(arr, np.sort(values))


def sorted_remove_present(arr: np.ndarray,
                          values: np.ndarray) -> np.ndarray:
    """:func:`sorted_remove` for values already unique and present.

    Same trust contract as :func:`sorted_insert_unique`, dual
    direction: ``np.delete`` treats the index list as a set, so no
    sort is needed at all.
    """
    if values.size == 0:
        return arr
    return np.delete(arr, np.searchsorted(arr, values))


# ----------------------------------------------------------------------
# Reads against the side tables as they stood at each read's op
# ----------------------------------------------------------------------
class SideTable(NamedTuple):
    """One side table a read consults after the model.

    ``keys`` is the sorted table at segment start; ``enters`` and
    ``leaves`` are the ``EFF_*`` codes that move a key into and out of
    it (``None``: no effect does).  A ``tombstones`` table is a
    membership bitmap: one probe per model hit while it is non-empty,
    and a member turns the hit into a miss.  Any other table is
    binary-searched by the reads still missing, and a member turns the
    miss into a hit.
    """

    keys: np.ndarray
    enters: int | None = None
    leaves: int | None = None
    tombstones: bool = False


class TableMoves(NamedTuple):
    """A segment's moves into (``sign`` +1) and out of (−1) one side
    table, in op order, and per read how many of them precede it.

    In a hazard-free segment a key has at most one effect, so each of
    a read's three facts about the table at its op — size, the query's
    rank, membership — is a prefix count over these moves.
    """

    keys: np.ndarray
    sign: np.ndarray
    before: np.ndarray

    def sizes(self, table: SideTable, before: np.ndarray) -> np.ndarray:
        """The table's size at each read."""
        moved = np.zeros(self.sign.size + 1, dtype=np.int64)
        np.cumsum(self.sign, out=moved[1:])
        return table.keys.size + moved[before]

    def members(self, table: SideTable, queries: np.ndarray,
                before: np.ndarray) -> np.ndarray:
        """Each query's membership at its read: a moved key's
        membership flips once its move precedes the read."""
        order = np.argsort(self.keys)
        moved = self.keys[order]
        i = np.minimum(np.searchsorted(moved, queries), moved.size - 1)
        flipped = (moved[i] == queries) & (order[i] < before)
        return sorted_member(table.keys, queries) ^ flipped

    def ranks(self, table: SideTable, queries: np.ndarray,
              before: np.ndarray) -> np.ndarray:
        """Table keys below each query at its read."""
        return (np.searchsorted(table.keys, queries)
                + prefix_less_sums(self.keys, self.sign, before, queries))


def table_moves(table: SideTable, eff: np.ndarray, sub_key: np.ndarray,
                upto: np.ndarray) -> TableMoves | None:
    """The moves of ``table`` among a segment's effects, given per read
    the count ``upto`` of sub-ops before it; ``None`` when no effect
    touches the table."""
    sign = np.zeros(eff.size, dtype=np.int64)
    if table.enters is not None:
        sign[eff == table.enters] = 1
    if table.leaves is not None:
        sign[eff == table.leaves] = -1
    at = np.nonzero(sign)[0]
    if at.size == 0:
        return None
    return TableMoves(sub_key[at], sign[at], np.searchsorted(at, upto))


#: :func:`prefix_less_sums` compares at most this many (value, query)
#: pairs at once.
_BROADCAST_PAIRS = 1 << 16


def prefix_less_sums(values: np.ndarray, weights: np.ndarray,
                     upto: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``weights[:u][values[:u] < q].sum()`` for each pair ``(u, q)``
    of ``upto`` and ``queries``.

    Every pair is compared, a chunk of queries at a time, so memory
    stays O(n + m): a chunk holds at most ``_BROADCAST_PAIRS`` pairs
    (one query's row when ``n`` alone exceeds that).
    """
    n = values.size
    out = np.empty(queries.size, dtype=np.int64)
    index = np.arange(n)
    rows = max(1, _BROADCAST_PAIRS // max(n, 1))
    for at in range(0, queries.size, rows):
        chunk = slice(at, at + rows)
        pairs = ((values < queries[chunk, None])
                 & (index < upto[chunk, None]))
        out[chunk] = pairs @ weights
    return out


def search_probes(size: np.ndarray, rank: np.ndarray,
                  member: np.ndarray) -> np.ndarray:
    """Probes of a full-range binary search, per query, in a sorted
    table of ``size`` keys for a key of ``rank`` (its count of smaller
    table keys) that is or is not a ``member``.

    The path depends on nothing else, so no table is needed:
    :func:`~repro.index.batch.path_probes` walks it in index space
    over ``[0, size - 1]``, the same walk that counts the probes of
    every real-table search.
    """
    return path_probes(np.zeros(size.shape, dtype=np.int64), size - 1,
                       rank, member)
