"""Numpy kernel backend: vectorized partition refinement and scans.

Same kernel surface as :mod:`repro.kernels.pybackend`, implemented on
numpy: grouping is a stable argsort over a combined ``(cluster, value)``
int64 key with boundary detection on the sorted vector, violation scans
compare every row against its cluster's first row in one broadcast, and
agree sets are packed into uint64 bitset words (64 attributes per word).

Determinism contract (docs/KERNELS.md): every kernel reproduces the
pure-Python output *byte for byte* —

* clusters are emitted in first-occurrence order of the parent
  traversal (the stable sort keeps row order inside each group and
  ``order[starts]`` recovers each group's first position, which sorts
  groups exactly like dict insertion order),
* ``from_value_ids`` emits the shared-NULL cluster last,
* violation scans return the *same* violating pair as the interpreted
  scan: the first mismatching row in CSR order, paired with its
  cluster's first row,
* agree-set kernels return each distinct mask once with its pair
  count, keyed in order of the mask's first pair (``np.unique`` with
  ``return_index``, re-sorted by that index).

Inputs arrive as ``array('i')`` buffers or shared-memory memoryview
slices; ``_as_np`` wraps them zero-copy via ``np.frombuffer``.  Views
are created per call and never cached, so worker teardown can release
the shm segment without ``BufferError``.  Outputs are converted back to
``array('i')`` so the CSR byte protocol (e.g. TANE's shipped
``tobytes()`` prefixes) is identical across backends.

The registry only calls this module for inputs of at least
``repro.kernels.SMALL_INPUT_THRESHOLD`` driving elements
(:func:`repro.kernels.for_size`): below that, per-call numpy overhead
(buffer wrapping, argsort setup) exceeds the interpreted loop's cost,
and a run made only of small calls never imports numpy at all.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

import numpy as np

__all__ = [
    "agree_one_to_many",
    "agree_pairs",
    "find_violating_pair",
    "find_violations",
    "from_value_ids",
    "intersect",
    "intersect_ids",
    "name",
    "refines_column",
]

name = "numpy"


def _as_np(buf) -> np.ndarray:
    """Zero-copy int32 view over a buffer (copying only for plain lists)."""
    if isinstance(buf, np.ndarray):
        return buf
    try:
        return np.frombuffer(buf, dtype=np.int32)
    except (TypeError, ValueError):
        return np.asarray(buf, dtype=np.int32)


def _to_arr(values: np.ndarray) -> array:
    out = array("i")
    if len(values):
        out.frombytes(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return out


def _empty_csr() -> tuple[array, array]:
    return array("i"), array("i", [0])


def _group_sorted(keys: np.ndarray):
    """Stable-sort ``keys`` and locate the group boundaries.

    Returns ``(order, starts, sizes)``: the stable permutation, each
    group's start inside the sorted vector, and each group's size.
    Stability is what preserves the original traversal order inside
    every group — the cross-backend identity hinges on it.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = len(keys)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, n))
    return order, starts, sizes


def _emit_csr(
    rows_sorted: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    group_order: np.ndarray,
) -> tuple[array, array]:
    """Concatenate the selected groups (in ``group_order``) into CSR."""
    if len(group_order) == 0:
        return _empty_csr()
    starts_o = starts[group_order]
    sizes_o = sizes[group_order]
    out_offsets = np.empty(len(sizes_o) + 1, dtype=np.int64)
    out_offsets[0] = 0
    np.cumsum(sizes_o, out=out_offsets[1:])
    total = int(out_offsets[-1])
    # Gather each group's slice: for output slot j of group g the source
    # index is starts_o[g] + (j - out_offsets[g]).
    gather = np.repeat(starts_o - out_offsets[:-1], sizes_o)
    gather += np.arange(total, dtype=np.int64)
    return _to_arr(rows_sorted[gather]), _to_arr(out_offsets)


# ----------------------------------------------------------------------
# Partition construction and refinement
# ----------------------------------------------------------------------
def from_value_ids(
    codes: Sequence[int], null_code: int | None
) -> tuple[array, array]:
    """Group rows by value id into stripped CSR (NULL cluster last)."""
    code_vec = _as_np(codes)
    if len(code_vec) == 0:
        return _empty_csr()
    order, starts, sizes = _group_sorted(code_vec)
    keep = np.flatnonzero(sizes > 1)
    if len(keep) == 0:
        return _empty_csr()
    first_pos = order[starts[keep]]
    if null_code is not None:
        is_null = code_vec[order[starts[keep]]] == null_code
        group_order = keep[np.lexsort((first_pos, is_null))]
    else:
        group_order = keep[np.argsort(first_pos, kind="stable")]
    return _emit_csr(order, starts, sizes, group_order)


def _refine(
    rows: np.ndarray, cluster_ids: np.ndarray, values: np.ndarray
) -> tuple[array, array]:
    """Sub-group ``rows`` (already clustered) by ``values``, strip, emit.

    ``rows[i]`` belongs to cluster ``cluster_ids[i]`` and carries value
    ``values[i]``; both vectors follow CSR traversal order, which the
    stable sort preserves inside each ``(cluster, value)`` group.
    """
    span = int(values.max()) + 1
    keys = cluster_ids.astype(np.int64) * span + values.astype(np.int64)
    order, starts, sizes = _group_sorted(keys)
    keep = np.flatnonzero(sizes > 1)
    if len(keep) == 0:
        return _empty_csr()
    # Groups are emitted in order of their first CSR position — exactly
    # the per-cluster dict insertion order of the interpreted loop.
    group_order = keep[np.argsort(order[starts[keep]], kind="stable")]
    return _emit_csr(rows[order], starts, sizes, group_order)


def _cluster_id_vector(offsets: np.ndarray) -> np.ndarray:
    sizes = np.diff(offsets)
    return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


def intersect(
    row_data: array,
    offsets: array,
    num_rows: int,
    other_rows: array,
    other_offsets: array,
) -> tuple[array, array]:
    """Stripped product of two CSR partitions (scatter + sort/groupby)."""
    rows = _as_np(row_data)
    o_rows = _as_np(other_rows)
    if len(rows) == 0 or len(o_rows) == 0:
        return _empty_csr()
    probe = np.full(num_rows, -1, dtype=np.int64)
    probe[o_rows] = _cluster_id_vector(_as_np(other_offsets))
    values = probe[rows]
    valid = values >= 0
    rows_v = rows[valid]
    if len(rows_v) == 0:
        return _empty_csr()
    cluster_ids = _cluster_id_vector(_as_np(offsets))[valid]
    return _refine(rows_v, cluster_ids, values[valid])


def intersect_ids(
    row_data: array, offsets: array, num_rows: int, codes: Sequence[int]
) -> tuple[array, array]:
    """Product with a single attribute given as its value-id vector."""
    rows = _as_np(row_data)
    if len(rows) == 0:
        return _empty_csr()
    values = _as_np(codes)[rows]
    return _refine(rows, _cluster_id_vector(_as_np(offsets)), values)


# ----------------------------------------------------------------------
# Violation scans
# ----------------------------------------------------------------------
def _mismatch_mask(
    rows: np.ndarray, offsets: np.ndarray, sizes: np.ndarray, probe
) -> np.ndarray:
    """Per CSR slot: does the row disagree with its cluster's first row?"""
    values = _as_np(probe)[rows]
    return values != np.repeat(values[offsets[:-1]], sizes)


def refines_column(row_data: array, offsets: array, probe: Sequence[int]) -> bool:
    rows = _as_np(row_data)
    if len(rows) == 0:
        return True
    offs = _as_np(offsets)
    return not bool(np.any(_mismatch_mask(rows, offs, np.diff(offs), probe)))


def _first_violation(
    rows: np.ndarray, offs: np.ndarray, mismatch: np.ndarray
) -> tuple[int, int] | None:
    """The interpreted scan's pair: first mismatch in CSR order, paired
    with its cluster's first row."""
    position = int(np.argmax(mismatch))
    if not mismatch[position]:
        return None
    cluster = int(np.searchsorted(offs, position, side="right")) - 1
    return (int(rows[offs[cluster]]), int(rows[position]))


def find_violating_pair(
    row_data: array, offsets: array, probe: Sequence[int]
) -> tuple[int, int] | None:
    rows = _as_np(row_data)
    if len(rows) == 0:
        return None
    offs = _as_np(offsets)
    return _first_violation(
        rows, offs, _mismatch_mask(rows, offs, np.diff(offs), probe)
    )


def find_violations(
    row_data: array,
    offsets: array,
    rhs_attrs: Sequence[int],
    probes: Sequence[Sequence[int]],
) -> dict[int, tuple[int, int]]:
    """Refute many RHS candidates, one broadcast scan per attribute.

    Returns the identical attr → pair mapping as the interpreted sweep:
    per attribute, the first mismatching row in CSR order against its
    cluster's first row (the sweep visits clusters in the same order and
    stops at each cluster's first mismatch, so "first in CSR order" is
    the same pair).
    """
    violations: dict[int, tuple[int, int]] = {}
    rows = _as_np(row_data)
    if len(rows) == 0 or not rhs_attrs:
        return violations
    offs = _as_np(offsets)
    sizes = np.diff(offs)
    for attr, probe in zip(rhs_attrs, probes):
        pair = _first_violation(
            rows, offs, _mismatch_mask(rows, offs, sizes, probe)
        )
        if pair is not None:
            violations[attr] = pair
    return violations


# ----------------------------------------------------------------------
# Agree sets (uint64-packed bitsets, 64 attributes per word)
# ----------------------------------------------------------------------
def _packed_words(
    codes: Sequence[Sequence[int]],
    left_values,
    rights: np.ndarray,
) -> list[np.ndarray]:
    """One uint64 vector per 64-attribute word; bit ``b`` of word ``w``
    is set iff the pair agrees on attribute ``64*w + b``.

    ``left_values(column)`` gives the left side's values in ``column``:
    one per pair, or one scalar shared by every pair.
    """
    count = len(rights)
    words = []
    for base in range(0, len(codes), 64):
        acc = np.zeros(count, dtype=np.uint64)
        for bit in range(min(64, len(codes) - base)):
            column = _as_np(codes[base + bit])
            agree = (column[rights] == left_values(column)).astype(np.uint64)
            acc |= agree << np.uint64(bit)
        words.append(acc)
    return words


def _agree_counts(
    codes: Sequence[Sequence[int]], left_values, rights: np.ndarray
) -> dict[int, int]:
    """Each distinct agree mask of the pairs with its pair count, in
    first-occurrence order (``np.unique`` returns the index of each
    packed mask's first occurrence)."""
    if not len(rights):
        return {}
    if not len(codes):  # no attributes: every pair agrees on the empty set
        return {0: len(rights)}
    words = _packed_words(codes, left_values, rights)
    if len(words) == 1:
        unique, first, counts = np.unique(
            words[0], return_index=True, return_counts=True
        )
        unique = unique[:, None]
    else:
        unique, first, counts = np.unique(
            np.stack(words, axis=1), axis=0, return_index=True, return_counts=True
        )
    order = np.argsort(first, kind="stable")
    unique = unique[order]
    masks = unique[:, 0].tolist()
    for word_index in range(1, unique.shape[1]):
        shift = 64 * word_index
        for i, high in enumerate(unique[:, word_index].tolist()):
            masks[i] |= high << shift
    return dict(zip(masks, counts[order].tolist()))


def agree_pairs(
    codes: Sequence[Sequence[int]],
    lefts: Sequence[int],
    rights: Sequence[int],
) -> dict[int, int]:
    """Each distinct agree mask of the ``(lefts[i], rights[i])`` pairs,
    mapped to its pair count, in first-occurrence order."""
    left_idx = np.asarray(lefts, dtype=np.intp)
    right_idx = np.asarray(rights, dtype=np.intp)
    return _agree_counts(codes, lambda column: column[left_idx], right_idx)


def agree_one_to_many(
    codes: Sequence[Sequence[int]], left: int, rights: Sequence[int]
) -> dict[int, int]:
    """:func:`agree_pairs` of row ``left`` against each row in ``rights``."""
    right_idx = np.asarray(rights, dtype=np.intp)
    return _agree_counts(codes, lambda column: column[left], right_idx)
