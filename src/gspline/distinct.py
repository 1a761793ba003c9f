"""Items numbered by first use, one number per byte-wise distinct content.

``first_use`` takes a uint64 key per item that equal contents share (a
digest), and compares each item bitwise with the first item of its key.
Only the items of a key whose contents differ (a digest collision) have
their bytes read, to split that key.  So the digest needs no strength,
and no copy of the contents is kept.  The archive writer numbers its
coefficient blocks this way (``archive.block_numbers``), and a G1 build
its constraint systems (``segments``: items whose content is one segment
of each of several flat arrays).
"""

from __future__ import annotations

import numpy as np


def weights(size: int) -> np.ndarray:
    """Pseudo-random uint64 weights of a digest of up to ``size`` values,
    the splitmix64 outputs 1..size: the same on every call, and each a
    prefix of the longer ones, so equal contents of two sizes of table
    get equal digests.  (``numpy.random`` would add an import.)"""
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def first_use(keys: np.ndarray, agree, content) -> tuple[np.ndarray, np.ndarray]:
    """Each item's number and the first item of each number; numbers go by
    first use in item order.  ``keys`` are the items' digests;
    ``agree(head)`` tells, per item, whether its content is bitwise that
    of item ``head[i]``, the first item of its key; ``content(i)`` is the
    bytes of item i, read only for the items of a key that disagree."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    same = agree(first[inverse])
    if not same.all():
        split = np.zeros(len(keys), dtype=np.int64)
        for key in np.unique(inverse[~same]).tolist():
            seen = {}
            for i in np.flatnonzero(inverse == key).tolist():
                split[i] = seen.setdefault(content(i), len(seen))
        _, first, inverse = np.unique(inverse * (split.max() + 1) + split,
                                      return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]


def ranges(starts, counts) -> np.ndarray:
    """starts[i] + arange(counts[i]), concatenated over i."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(np.asarray(starts, dtype=np.int64) - ends + counts, counts))


def segments(parts) -> tuple[np.ndarray, np.ndarray]:
    """``first_use`` of items whose content is one segment of each part.
    ``parts`` are ``(values, offsets)`` pairs: a flat array of 8-byte
    values and the k + 1 bounds of its segments, one per item.  Two items
    are equal when every part's segments have the same length and the
    same bytes."""
    bits, starts, lengths = _layout(parts)
    # each value's place in its item's content, parts end to end
    ahead = np.cumsum(lengths, axis=0) - lengths
    at = np.arange(bits.size) - np.repeat((starts - ahead).ravel(), lengths.ravel())
    w = weights(int(lengths.sum(axis=0).max(initial=0)) + len(parts))
    sums = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(bits * w[at + len(parts)])])
    keys = ((sums[starts + lengths] - sums[starts]).sum(axis=0, dtype=np.uint64)
            + (lengths.astype(np.uint64) * w[:len(parts), None]).sum(axis=0, dtype=np.uint64))

    def agree(head):
        same = (lengths == lengths[:, head]).all(axis=0)
        other = np.flatnonzero(same & (head != np.arange(head.size)))
        n = lengths[:, other].ravel()
        mine = bits[ranges(starts[:, other].ravel(), n)]
        theirs = bits[ranges(starts[:, head[other]].ravel(), n)]
        item = np.repeat(np.tile(np.arange(other.size), len(parts)), n)
        same[other[item[mine != theirs]]] = False
        return same

    def content(i):
        return lengths[:, i].tobytes() + bits[ranges(starts[:, i], lengths[:, i])].tobytes()

    return first_use(keys, agree, content)


def _layout(parts):
    """The parts' values end to end as one uint64 array, and the start and
    the length there of each segment, as (parts, items) tables."""
    bits = np.concatenate([np.zeros(0, dtype=np.uint64)] + [
        np.ascontiguousarray(values).reshape(-1).view(np.uint64) for values, _ in parts])
    base = np.cumsum([0] + [np.size(values) for values, _ in parts[:-1]])
    offsets = np.array([np.asarray(offsets) for _, offsets in parts], dtype=np.int64)
    return bits, base[:, None] + offsets[:, :-1], np.diff(offsets, axis=1)
