"""Structure adjustment as a range splice over the canonical arrays.

A mutation batch touches a handful of slots of a CSR+CSC snapshot; the
rest of the post-batch snapshot is the old one, shifted.  This module
is the single adjustment core under every snapshot store (paper
section 4.1: one offset pass, one edge-shift pass), in three parts:

- :func:`row_search` -- a vectorised per-row binary search, the one
  primitive that turns ``(vertex, neighbour)`` pairs into edge slots;
- a per-direction *plan* -- the sorted slots the batch deletes and, for
  the additions, the slot each is inserted before;
- an *emit* step that walks the plan and pushes the untouched runs
  ``old[a:b]`` and the inserted chunks into a snapshot writer
  (:meth:`~repro.graph.storage.SnapshotStore.writer`), so the same
  walk ends in one ``np.concatenate`` on heap and in bounded
  file-to-file block copies out of core.

**Ordering contract.**  The spliced arrays equal, byte for byte, what
the :class:`~repro.graph.csr.CSRGraph` constructor builds from
``survivors ++ additions``: its stable lexsort keeps surviving edges
ahead of additions with the same ``(key, other)`` pair and keeps such
additions in batch order.  The plan reproduces that by ordering the
additions with a stable sort and inserting each at the *right* end of
any run of equal neighbours in its row.

Cost is O(k log d) array steps for the plan (k mutations, d the
largest probed degree), O(V) for the offsets and one copy of the edge
arrays for the emit -- no sort over E, no per-edge key or mask.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["locate", "row_search", "splice"]


def row_search(offsets: np.ndarray, others: np.ndarray, keys: np.ndarray,
               values: np.ndarray, side: str = "left") -> np.ndarray:
    """``np.searchsorted(row(keys[i]), values[i], side)`` for every i at
    once, as absolute slots into ``others``.

    ``row(v)`` is ``others[offsets[v]:offsets[v + 1]]``, sorted
    ascending.  Every probe halves its own ``[lo, hi)`` interval per
    step, so only slots in or right after the probed rows are read -- a
    memmap stays on disk apart from those pages.
    """
    lo = offsets[keys]
    hi = offsets[keys + 1]
    goes_right = np.less if side == "left" else np.less_equal
    last = others.size - 1
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        # A closed interval (lo == hi) stays put: mid == hi there, and
        # the clip only keeps its dead probe inside the array.
        right = (lo < hi) & goes_right(others[np.minimum(mid, last)], values)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def locate(offsets: np.ndarray, others: np.ndarray, keys: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """Leftmost slot of each ``(key, value)`` pair, -1 where row ``key``
    does not hold ``value``.  Keys must address existing rows."""
    slots = row_search(offsets, others, keys, values, "left")
    hit = slots < offsets[keys + 1]
    hit[hit] = others[slots[hit]] == values[hit]
    return np.where(hit, slots, -1)


def splice(writer, names: Tuple[str, str, str], num_vertices: int,
           offsets: np.ndarray, others: np.ndarray, weights: np.ndarray,
           add_key: np.ndarray, add_other: np.ndarray,
           add_weight: np.ndarray,
           del_key: np.ndarray, del_other: np.ndarray) -> np.ndarray:
    """Write one direction (CSR or CSC) of the post-batch snapshot.

    ``names`` are the writer's array names for this direction's
    offsets, neighbours and weights.  Deletions must be present in the
    old arrays; additions are inserted unconditionally.  Returns the
    slot of every addition in the *new* neighbour array, aligned with
    ``add_key``.
    """
    offsets_name, others_name, weights_name = names
    num_edges = int(others.size)

    # Old offsets padded for growth: new rows start out empty at the end.
    new_offsets = np.full(num_vertices + 1, num_edges, dtype=np.int64)
    new_offsets[:offsets.size] = offsets

    # Plan, deletions: the sorted slots that vanish.
    del_slots = locate(offsets, others, del_key, del_other)
    if del_slots.size and del_slots.min() < 0:
        # Imported here: repro.graph.storage imports this module.
        from repro.graph.storage import StoreError

        lost = int(np.argmin(del_slots))
        raise StoreError(
            f"edge ({del_key[lost]}, {del_other[lost]}) vanished "
            "between resolution and adjustment"
        )
    del_slots.sort()

    # Plan, additions: stable (key, other) order, each inserted before
    # the slot at the right end of its equal run.
    order = np.lexsort((add_other, add_key))
    add_other = add_other[order]
    add_weight = add_weight[order]
    ins_slots = row_search(new_offsets, others, add_key[order], add_other,
                           "right")
    added_slots = np.empty(order.size, dtype=np.int64)
    added_slots[order] = (ins_slots + np.arange(order.size)
                          - np.searchsorted(del_slots, ins_slots))

    # Offsets: the padded old ones plus the running sum of each vertex's
    # degree change.
    new_offsets[1:] += np.cumsum(
        np.bincount(add_key, minlength=num_vertices)
        - np.bincount(del_key, minlength=num_vertices)
    )
    writer.append(offsets_name, new_offsets)

    # One event per addition (insert before its slot) and per deletion
    # (skip its slot); at a shared slot the additions land first, in
    # their sorted order, because the walk order is a stable sort.
    at = np.concatenate([ins_slots, del_slots])
    walk = np.lexsort((np.arange(at.size) >= order.size, at))

    # Emit: untouched runs of the old arrays between events.
    cursor = 0
    for slot, event in zip(at[walk].tolist(), walk.tolist()):
        if slot > cursor:
            writer.append_raw(others_name, others, cursor, slot)
            writer.append_raw(weights_name, weights, cursor, slot)
        if event < order.size:
            writer.append(others_name, add_other[event:event + 1])
            writer.append(weights_name, add_weight[event:event + 1])
            cursor = slot
        else:
            cursor = slot + 1
    if num_edges > cursor:
        writer.append_raw(others_name, others, cursor, num_edges)
        writer.append_raw(weights_name, weights, cursor, num_edges)
    return added_slots
