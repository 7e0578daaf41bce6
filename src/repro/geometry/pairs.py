"""Join-result pair sets: canonical encoding, accumulation and the oracle.

The paper defines the self-join result as the set of unordered object
pairs with strictly overlapping MBRs, excluding reflexive pairs and
counting commutative pairs once (Section 3.2).  Every join algorithm in
this repository emits pairs through the utilities here so that result
semantics are identical across algorithms and trivially comparable in
tests.

Pairs are canonicalised as ``i < j`` over the objects' positional indices
in the dataset and packed into an ``int64`` key ``(i << b) | j`` with
``b = max(1, (n - 1).bit_length())`` bits for each index.  Since
``j < 2**b``, the keys sort in lexicographic ``(i, j)`` order, one
object's pairs as the lower index form the key range
``[i << b, (i + 1) << b)``, and :func:`unpack_pairs`, the only decoder
to ``(i, j)`` arrays, is a shift and a mask instead of an integer
division.  A pair is one key from the moment a kernel emits it
(:class:`PairAccumulator`) until a consumer reads ``JoinResult.pairs``,
which decodes once.  Deduplication sorts those keys
(:func:`sorted_unique_keys`) rather than hashing them, and the CSR
neighbour lists are one sort of the keys and their transposes
(:func:`keys_to_adjacency`).
"""

from __future__ import annotations

import numpy as np

from repro.geometry import mbr

__all__ = [
    "canonicalize_pairs",
    "pack_pairs",
    "unpack_pairs",
    "sorted_unique_keys",
    "unique_pairs",
    "pairs_equal",
    "PairAccumulator",
    "MaintainedPairSet",
    "KeySnapshot",
    "brute_force_pairs",
    "keys_to_adjacency",
    "all_combinations",
]


def canonicalize_pairs(i_idx: np.ndarray, j_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order each pair as ``(min, max)`` and drop reflexive entries.

    Returns two ``int64`` arrays of equal length.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    if i_idx.shape != j_idx.shape:
        raise ValueError("pair index arrays must have the same shape")
    keep = i_idx != j_idx
    i_idx = i_idx[keep]
    j_idx = j_idx[keep]
    lo = np.minimum(i_idx, j_idx)
    hi = np.maximum(i_idx, j_idx)
    return lo, hi


#: Largest object count a pair key can address: two 31-bit index fields
#: fill 62 bits, so every key is a non-negative ``int64``.
MAX_OBJECTS = 2**31


def _index_bits(n: int) -> int:
    """Bits per index field of a pair key over ``n`` objects."""
    if not 0 < n <= MAX_OBJECTS:
        raise ValueError(f"n must lie in [1, 2**31], got {n}")
    return max(1, (int(n) - 1).bit_length())


def pack_pairs(i_idx: np.ndarray, j_idx: np.ndarray, n: int) -> np.ndarray:
    """Pack pairs into sortable ``int64`` keys ``(i << b) | j``.

    ``b`` is the index width of the module docstring; keys sort in
    lexicographic ``(i, j)`` order.  Raises :class:`ValueError` for
    ``n`` outside ``[1, 2**31]`` or an index outside ``[0, n)``.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    bits = _index_bits(n)
    if i_idx.size and (
        min(int(i_idx.min()), int(j_idx.min())) < 0
        or max(int(i_idx.max()), int(j_idx.max())) >= n
    ):
        raise ValueError("pair index out of range [0, n) for the given n")
    return (i_idx << np.int64(bits)) | j_idx


def unpack_pairs(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_pairs`: the library's one decoder to ``(i, j)`` arrays."""
    keys = np.asarray(keys, dtype=np.int64)
    bits = _index_bits(n)
    return keys >> np.int64(bits), keys & np.int64((1 << bits) - 1)


def sorted_unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer key array.

    The library's one 1-D deduplication primitive; bit-identical to
    ``np.unique`` on integer input.  ``np.unique`` hashes its input on
    numpy 2.x and then sorts the distinct values, which costs tens of
    times more than one ``np.sort`` followed by an adjacent ``!=`` mask
    on the packed pair keys this library deduplicates.
    """
    ordered = np.sort(np.asarray(keys), axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def unique_pairs(i_idx: np.ndarray, j_idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalise, deduplicate and sort pairs; returns ``(i, j)`` arrays."""
    lo, hi = canonicalize_pairs(i_idx, j_idx)
    keys = sorted_unique_keys(pack_pairs(lo, hi, n))
    return unpack_pairs(keys, n)


def pairs_equal(pairs_a: tuple[np.ndarray, np.ndarray], pairs_b: tuple[np.ndarray, np.ndarray], n: int) -> bool:
    """Set equality of two pair collections given as ``(i, j)`` tuples."""
    keys_a = sorted_unique_keys(pack_pairs(*canonicalize_pairs(*pairs_a), n))
    keys_b = sorted_unique_keys(pack_pairs(*canonicalize_pairs(*pairs_b), n))
    return keys_a.shape == keys_b.shape and bool(np.array_equal(keys_a, keys_b))


class PairAccumulator:
    """Collects join-result pairs cheaply during a join.

    Join algorithms produce pairs in many small batches (one per cell
    pair, node pair, sweep window, ...).  Appending numpy arrays to a
    Python list and concatenating once at the end is far cheaper than
    repeated ``np.concatenate`` and keeps the emitting code simple.

    Each batch is stored as one array of canonical pair keys over ``n``
    objects (:func:`pack_pairs`), so canonicalisation happens in the
    emit: reflexive pairs are dropped and ``i < j`` holds in every key.
    A pair stays a key until a consumer decodes it (:meth:`as_arrays`).
    The accumulator does *not* deduplicate — algorithms that can emit
    duplicates (PBSM without reference points, for instance) must
    deduplicate themselves or call :meth:`as_unique_arrays`.

    A ``count_only`` accumulator records only the number of pairs, which
    the benchmark harness uses to keep large sweeps memory-friendly.
    """

    def __init__(self, n: int, count_only: bool = False) -> None:
        self.n = int(n)
        self._bits = np.int64(_index_bits(n))
        self._batches: list[np.ndarray] = []
        self._count = 0
        self.count_only = count_only

    def __len__(self) -> int:
        return self._count

    def extend(self, i_idx: np.ndarray, j_idx: np.ndarray) -> None:
        """Add a batch of pairs (any order; reflexive entries dropped)."""
        i_idx = np.asarray(i_idx, dtype=np.int64)
        j_idx = np.asarray(j_idx, dtype=np.int64)
        if i_idx.shape != j_idx.shape:
            raise ValueError("pair index arrays must have the same shape")
        distinct = i_idx != j_idx
        if self.count_only:
            self._count += int(np.count_nonzero(distinct))
            return
        keys = np.minimum(i_idx, j_idx)
        keys <<= self._bits
        keys |= np.maximum(i_idx, j_idx)
        keys = keys[distinct]
        self._count += int(keys.size)
        if keys.size:
            self._batches.append(keys)

    def extend_canonical(self, i_idx: np.ndarray, j_idx: np.ndarray) -> None:
        """Add a batch already known to satisfy ``i < j``.

        Skips the canonicalisation pass; used on hot paths such as the
        hot-spot all-combinations emit where ordering holds by
        construction.
        """
        i_idx = np.asarray(i_idx, dtype=np.int64)
        self._count += int(i_idx.size)
        if not self.count_only and i_idx.size:
            self._batches.append((i_idx << self._bits) | np.asarray(j_idx, dtype=np.int64))

    def extend_keys(self, keys: np.ndarray) -> None:
        """Add a batch of canonical pair keys over the same ``n`` objects.

        How a process worker's shard, shipped as :meth:`as_keys`, joins
        the parent's accumulator.
        """
        keys = np.asarray(keys, dtype=np.int64)
        self._count += int(keys.size)
        if not self.count_only and keys.size:
            self._batches.append(keys)

    def add_count(self, n: int) -> None:
        """Record ``n`` pairs without materialising them.

        Only valid in ``count_only`` mode; parallel executors use this to
        fold a worker's count-only shard back into the parent.
        """
        if not self.count_only:
            raise RuntimeError("add_count requires a count_only accumulator")
        self._count += int(n)

    def merge(self, other: PairAccumulator) -> None:
        """Absorb another accumulator's batches (parallel join shards).

        The other accumulator must have the same ``count_only`` mode and
        object count; it is left empty afterwards.
        """
        if other.count_only != self.count_only:
            raise ValueError("cannot merge accumulators with different modes")
        if other.n != self.n:
            raise ValueError(
                f"cannot merge keys over {other.n} objects into keys over {self.n}"
            )
        self._count += other._count
        self._batches.extend(other._batches)
        other._batches = []
        other._count = 0

    def as_keys(self) -> np.ndarray:
        """All accumulated pairs as one canonical key array (unsorted)."""
        if self.count_only:
            raise RuntimeError("accumulator was created count_only; pairs not kept")
        if not self._batches:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._batches)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(i, j)`` arrays with all accumulated pairs (unsorted)."""
        return unpack_pairs(self.as_keys(), self.n)

    def as_unique_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return deduplicated, sorted ``(i, j)`` arrays."""
        return unpack_pairs(sorted_unique_keys(self.as_keys()), self.n)


def _frozen(keys: np.ndarray) -> np.ndarray:
    """Mark a stored key array read-only and return it.

    Stored keys are shared, never copied: a step's ``JoinResult`` and a
    checkpoint may hold the arrays a :class:`MaintainedPairSet` holds.
    Every mutator builds new arrays, and the flag makes an in-place
    write raise instead of reaching a kept result.
    """
    keys.setflags(write=False)
    return keys


#: A maintained set folds its parts into one sorted array once the keys
#: added since the last fold outnumber this share of the base keys.  At
#: ~1.07M pairs and ~4% of them changing per step, that is about every
#: sixth step.
COMPACT_SHARE = 0.25

#: Keys per block of the settled-mask gather in
#: :meth:`MaintainedPairSet.patch` and of the live-key copy of a fold, so
#: their temporaries stay 512 KiB whatever the set's size.
_GATHER_BLOCK = 1 << 16

_NO_KEYS = _frozen(np.empty(0, dtype=np.int64))


def _fold(base: np.ndarray, alive: np.ndarray | None, extra: np.ndarray, size: int) -> np.ndarray:
    """The live keys of ``base`` merged with ``extra``: one sorted array.

    ``extra`` is sorted and disjoint from the live base keys.  One output
    allocation holds both runs, and the stable sort (a run-detecting
    merge sort for integers) merges them in one pass.  The live keys are
    copied block by block: ``np.compress`` or one boolean index over the
    whole base would build a temporary as large as the output.
    """
    if alive is None and not extra.size:
        return base
    out = np.empty(size, dtype=np.int64)
    live = size - extra.size
    if alive is None:
        out[:live] = base
    else:
        filled = 0
        for start in range(0, base.size, _GATHER_BLOCK):
            kept = base[start : start + _GATHER_BLOCK][alive[start : start + _GATHER_BLOCK]]
            out[filled : filled + kept.size] = kept
            filled += kept.size
    out[live:] = extra
    out.sort(kind="stable")
    return _frozen(out)


class KeySnapshot:
    """A maintained pair set's parts at one step, folded only when read.

    ``base`` holds sorted unique keys, ``alive`` marks the live ones
    (``None``: all of them), ``extra`` holds the sorted keys added since
    the last fold, and ``size`` is the exact number of pairs.  Every
    array is read-only and the set never writes it again, so a kept
    snapshot keeps its step's answer.
    """

    __slots__ = ("base", "alive", "extra", "size")

    def __init__(
        self, base: np.ndarray, alive: np.ndarray | None, extra: np.ndarray, size: int
    ) -> None:
        self.base = base
        self.alive = alive
        self.extra = extra
        self.size = size

    def fold(self) -> np.ndarray:
        """The step's sorted keys; the base itself when nothing is pending."""
        return _fold(self.base, self.alive, self.extra, self.size)


class MaintainedPairSet:
    """A join result maintained across simulation steps.

    Incremental pair-set maintenance keeps the previous step's result and
    patches it instead of recomputing (:meth:`patch`): pairs incident to
    a moved object are dropped and the freshly re-verified moved-incident
    pairs are added.  Pairs are canonical ``i < j`` packed ``int64``
    keys (:func:`pack_pairs`), so set algebra is exact and the folded
    array is deterministic regardless of executor or task order.

    The set is two-level, so a patch writes O(moved + changed) keys:

    * ``base``: sorted unique keys, as of the last fold;
    * ``alive``: a bool mask over ``base`` (``None``: every key lives);
    * ``extra``: sorted keys added since the last fold, disjoint from
      the live base keys;
    * the exact pair count.

    A patch clears the dropped base keys in a new ``alive`` mask and
    merges its fresh keys into ``extra``.  The parts are folded into one
    new ``base`` when ``extra`` outgrows :data:`COMPACT_SHARE` of it and
    whenever :meth:`packed_keys` is called.  No step decodes the set:
    the pairs a moved object holds as the lower index are one key range
    of ``base``, and those it holds as the upper index are the keys
    whose low field it owns.

    :meth:`patch` (plus construction from a full join result) is the
    *only* sanctioned mutator — repro-lint rule
    RPL203 enforces that library code never pokes the parts directly,
    which is what makes the bit-identity contract with the full re-join
    auditable.  Every part is read-only and a mutator replaces rather
    than writes it, so a :meth:`snapshot` handed out earlier never
    changes.
    """

    def __init__(self, n: int, keys: np.ndarray) -> None:
        """Seed the set from canonical pair keys over ``n`` objects.

        ``keys`` is what a :class:`PairAccumulator` emits (any order,
        duplicates allowed); it is sorted and deduplicated, not decoded.
        """
        _index_bits(n)  # rejects n outside [1, 2**31]
        self.n = int(n)
        self._base = _frozen(sorted_unique_keys(np.asarray(keys, dtype=np.int64)))
        self._alive: np.ndarray | None = None
        self._extra = _NO_KEYS
        self._count = int(self._base.size)
        self._compactions = 0

    def __len__(self) -> int:
        return self._count

    @property
    def extra_keys(self) -> int:
        """Keys added since the last fold."""
        return int(self._extra.size)

    @property
    def compactions(self) -> int:
        """Folds this set has run since it was built."""
        return self._compactions

    def patch(self, moved_mask: np.ndarray, fresh_keys: np.ndarray) -> tuple[int, int]:
        """Drop every pair with a moved endpoint, then add ``fresh_keys``.

        ``moved_mask`` is a boolean ``(n,)`` array.  ``fresh_keys`` are
        the re-verified canonical pair keys as a :class:`PairAccumulator`
        emits them (any order, duplicates allowed); each must have an
        endpoint in ``moved_mask``, or :class:`ValueError` is raised.
        Returns ``(dropped, added)``.

        This is exact: a pair between two *settled* objects cannot have
        changed, so everything that survives is reusable verbatim, and
        since every survivor has two settled endpoints and every fresh
        key a moved one, the fresh keys are new by construction.  The
        parts are assigned only at the end, so a raise leaves the set as
        it was.
        """
        moved_mask = np.asarray(moved_mask, dtype=bool)
        if moved_mask.shape != (self.n,):
            raise ValueError(
                f"moved_mask must have shape ({self.n},), got {moved_mask.shape}"
            )
        bits = np.int64(_index_bits(self.n))
        low = np.int64((1 << int(bits)) - 1)
        fresh = sorted_unique_keys(np.asarray(fresh_keys, dtype=np.int64))
        if fresh.size:
            i_idx, j_idx = fresh >> bits, fresh & low
            if fresh[0] < 0 or (j_idx >= self.n).any() or (i_idx >= j_idx).any():
                raise ValueError("fresh keys must be canonical pair keys over n objects")
            if not (moved_mask[i_idx] | moved_mask[j_idx]).all():
                raise ValueError("every fresh key needs an endpoint in moved_mask")

        base, alive, extra = self._base, self._alive, self._extra
        moved = np.flatnonzero(moved_mask)
        live_before = self._count - extra.size
        live = live_before
        if moved.size and live:
            settled = ~moved_mask
            # Upper index moved: gather the settled mask at the low
            # fields, block by block into the new mask.
            kept = np.empty(base.size, dtype=bool)
            fields = np.empty(min(base.size, _GATHER_BLOCK), dtype=np.int64)
            for start in range(0, base.size, _GATHER_BLOCK):
                block = base[start : start + _GATHER_BLOCK]
                np.bitwise_and(block, low, out=fields[: block.size])
                np.take(
                    settled,
                    fields[: block.size],
                    out=kept[start : start + block.size],
                    mode="clip",
                )
            if alive is not None:
                kept &= alive
            # Lower index moved: the key range [m << b, (m + 1) << b) per
            # moved object m.  Numbering the ranges' slots 0, 1, ... in
            # order, slot t of range r lies at starts[r] + t - (ends[r] -
            # lengths[r]).
            starts = np.searchsorted(base, moved << bits)
            lengths = np.searchsorted(base, (moved + 1) << bits) - starts
            ends = np.cumsum(lengths)
            kept[np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)] = False
            alive = _frozen(kept)
            live = int(np.count_nonzero(alive))
        dropped = live_before - live
        if moved.size and extra.size:
            survives = ~(moved_mask[extra >> bits] | moved_mask[extra & low])
            dropped += int(extra.size - np.count_nonzero(survives))
            extra = extra[survives]
        if fresh.size:
            merged = np.concatenate((extra, fresh))
            merged.sort(kind="stable")  # two sorted runs: one merge pass
            extra = merged
        count = live + int(extra.size)
        compactions = self._compactions
        if extra.size > COMPACT_SHARE * base.size:
            base, alive, extra = _fold(base, alive, extra, count), None, _NO_KEYS
            compactions += 1
        self._base, self._alive, self._extra = base, alive, _frozen(extra)
        self._count, self._compactions = count, compactions
        return dropped, int(fresh.size)

    def snapshot(self) -> KeySnapshot:
        """The current parts, which no later mutation touches."""
        return KeySnapshot(self._base, self._alive, self._extra, self._count)

    def packed_keys(self) -> np.ndarray:
        """The sorted packed keys: folds the parts and returns the new base.

        The array is the stored read-only one, not a copy.
        """
        if self._alive is not None or self._extra.size:
            self._base = _fold(self._base, self._alive, self._extra, self._count)
            self._alive, self._extra = None, _NO_KEYS
            self._compactions += 1
        return self._base

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current pair set as sorted canonical ``(i, j)`` arrays."""
        return unpack_pairs(self.packed_keys(), self.n)


def brute_force_pairs(lo: np.ndarray, hi: np.ndarray, chunk_size: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Reference oracle: exact self-join by exhaustive comparison.

    Evaluates all ``n * (n - 1) / 2`` strict-overlap predicates in
    blocked, vectorised form and returns sorted canonical ``(i, j)``
    arrays.  Every join algorithm's result is validated against this
    oracle in the test suite.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    mbr.validate_boxes(lo, hi)
    n = lo.shape[0]
    out_i = []
    out_j = []
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        # Compare block [start:stop] against everything at index > start.
        block = mbr.overlap_matrix(lo[start:stop], hi[start:stop], lo[start:], hi[start:])
        bi, bj = np.nonzero(block)
        keep = bj > bi  # strict upper triangle within the shifted frame
        out_i.append(bi[keep] + start)
        out_j.append(bj[keep] + start)
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    i_idx = np.concatenate(out_i).astype(np.int64)
    j_idx = np.concatenate(out_j).astype(np.int64)
    order = np.argsort(pack_pairs(i_idx, j_idx, n), kind="stable")
    return i_idx[order], j_idx[order]


def keys_to_adjacency(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR neighbour lists of pair keys over ``n`` objects.

    Each key ``(i << b) | j`` gives ``j`` to object ``i``'s list and
    ``i`` to object ``j``'s.  The keys and their transposes are
    directed keys ``(source << b) | target``; one sort orders them by
    source and then target, and the low fields of the sorted array are
    the neighbour lists.  The keys need not be sorted or canonical, and
    each key's two indices must lie in ``[0, n)``, which every key
    :func:`pack_pairs` emits satisfies.

    Returns
    -------
    tuple
        ``(offsets, neighbors)`` — object ``k``'s partners are
        ``neighbors[offsets[k]:offsets[k + 1]]``, sorted ascending.
        ``offsets`` has length ``n + 1``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    bits = np.int64(_index_bits(n))
    low = np.int64((1 << int(bits)) - 1)
    # One fresh array holds both directions and sorts in place: a copy
    # would be one more pair-set-sized allocation per call.
    directed = np.empty(2 * keys.size, dtype=np.int64)
    directed[: keys.size] = keys
    transposed = directed[keys.size :]
    np.bitwise_and(keys, low, out=transposed)
    transposed <<= bits
    transposed |= keys >> bits
    directed.sort()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(directed >> bits, minlength=n), out=offsets[1:])
    directed &= low
    return offsets, directed


def pairs_to_adjacency(i_idx: np.ndarray, j_idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convert a pair set into CSR-style per-object neighbour lists.

    Simulations consume the join as "the neighbours of each object" (the
    paper's gravitational-force example iterates per object); this turns
    the canonical pair arrays into that form through
    :func:`keys_to_adjacency`.

    Returns
    -------
    tuple
        ``(offsets, neighbors)`` — object ``k``'s partners are
        ``neighbors[offsets[k]:offsets[k + 1]]``, sorted ascending.
        ``offsets`` has length ``n + 1``.

    Raises
    ------
    ValueError
        If ``n`` is not positive, the index arrays differ in shape, or
        an index lies outside ``[0, n)``.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    if i_idx.shape != j_idx.shape:
        raise ValueError("pair index arrays must have the same shape")
    # pack_pairs' range check is what makes the directed-key sort exact.
    return keys_to_adjacency(pack_pairs(i_idx, j_idx, n), n)


def all_combinations(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs among ``indices`` without any overlap testing.

    This is the hot-spot emit of THERMAL-JOIN (Section 4.2.2): objects in
    a hot spot are guaranteed to overlap pairwise, so the ``k (k - 1) / 2``
    result pairs are produced combinatorially.  Returns canonical
    ``(i, j)`` arrays.
    """
    indices = np.asarray(indices, dtype=np.int64)
    k = indices.size
    if k < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    a, b = np.triu_indices(k, k=1)
    first = indices[a]
    second = indices[b]
    return np.minimum(first, second), np.maximum(first, second)
