"""Gram rank test, the n-subset rank scan and the rank-deficient partition search.

Two rank rules serve the package, both at the fixed relative tolerance
``GRAM_RTOL``.  The exact test, ``gram_full_rank``, decides every verdict:
the Gram matrix of a set of regressor rows has full rank when its smallest
singular value exceeds ``GRAM_RTOL`` times its largest.  Fewer than n rows
have rank below n, so a block of them is deficient by its row count, with
no decomposition.  The floor test only prunes: a set of rows whose
smallest Gram singular value exceeds ``GRAM_RTOL`` (plus rounding slack)
times the squared norm of all the rows at hand is full rank, and so is
every superset of it among those rows.
One enumeration yields every n-row subset of a set of rows with its Gram
matrix, chunk by chunk; ``subset_gram_svals`` is its SVD view, one batched
SVD per chunk, and decides the genericity certificate exactly.  Each
row's outer product x x^T is formed once, and a subset's Gram is the sum
of its rows' outer products.  An enumeration of at most ``SCAN_CHUNK``
subsets and ``_TABLE_INDICES`` indices takes its subset table from a
cache of at most ``_TABLE_CACHE`` read-only tables, 2 MiB at worst; a
longer one is built chunk by chunk, so memory stays bounded by one chunk
and a scan that stops early never enumerates the rest.  A Gram so built
may differ from the matmul's in its last bit: both err by about n*eps
times the rows' squared norm, some 1000 times less than the floor's
rounding slack.
``min_rank_deficient_partition`` is the walk, the adversarial search used
by the excitation checker: the smallest number of nonempty blocks into
which a set of regressor rows can be split with every block's Gram matrix
rank-deficient.  It walks restricted-growth strings depth-first, prunes a
branch as soon as one block passes the floor test, and accepts a complete
string only when every block fails the exact test.  The exact test cannot
prune: on rows of widely different scales a large added row raises the
largest singular value, so a full-rank block can turn deficient.

``deficient_block_capacity`` is the subset scan: it bounds how many rows of
a head, the first rows of a set, any rank-deficient block of the set
holds, by n-1 or by the head's row count, deciding the floor test on each
n-subset of the head from one batched ``eigvalsh`` per chunk, against the
floor of all the rows.  The capacity argument that turns the bound n-1
into a split, or into no split, with no walk is applied in one place,
``pe.check_partition_condition``.

Every entry point that squares rows first scales them by the power of two
that brings their largest |entry| into [0.5, 1).  The scaling is exact, so
it changes no decision on rows of ordinary scale, and it keeps the Grams
of rows near the ends of the float range from underflowing or
overflowing: every decision is the same for rows and 2^a times them.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain, combinations, islice

import numpy as np

GRAM_RTOL = 1e-10
# n-subsets per chunk of the subset scan, decomposed by one batched call:
# the chunk's Grams hold n*n floats per subset
SCAN_CHUNK = 4096
# subset index tables kept for reuse, and the most indices one may hold:
# at most 16 * 2**14 intp, 2 MiB on a 64-bit build, stay allocated
_TABLE_CACHE = 16
_TABLE_INDICES = 2**14
# relative room above the rounding of a Gram and of its singular values or
# eigenvalues, so a subset that clears the floor keeps every superset's Gram
# full rank; both solvers err by O(n*eps*||G||_2), about 1000x less
_ROUNDING_SLACK = 1e-12
# block states of the partition search
_DEFICIENT, _FULL, _SURELY_FULL = 0, 1, 2


def _unit_scaled(rows: np.ndarray) -> np.ndarray:
    """``rows`` times the power of two that brings the largest |entry| into [0.5, 1).

    Returns ``rows`` itself when they are already there or all zero.
    """
    exponent = math.frexp(np.abs(rows).max(initial=0.0))[1]
    return np.ldexp(rows, -exponent) if exponent else rows


def _floor(rows: np.ndarray) -> float:
    # no block of these rows has a Gram singular value above ||rows||_F^2
    return (GRAM_RTOL + _ROUNDING_SLACK) * float(np.einsum("ij,ij->", rows, rows))


def gram_full_rank(svals: np.ndarray, n: int) -> np.ndarray:
    """Whether a Gram matrix with singular values ``svals`` has full rank n.

    ``svals`` holds one Gram's values in descending order, or one Gram per
    row of a 2-D array; the result is a numpy bool, or one per row.  Fewer
    than n values means rank below n.  Scale-invariant: the smallest value
    must exceed ``GRAM_RTOL`` times the largest, which a zero Gram's values,
    all zero, do not.
    """
    if svals.shape[-1] != n:
        return np.zeros(svals.shape[:-1], dtype=bool)
    # .T[k] reads column k of a stack, or item k of a single Gram's values
    # as a numpy scalar, which keeps the single-Gram call cheap
    return svals.T[-1] > GRAM_RTOL * svals.T[0]


def gram_nonsingular(rows: np.ndarray, n: int) -> bool:
    """Whether sum_k x_k x_k^T over the given rows has full rank n.

    Fewer than n rows, none included, are rank-deficient by their count,
    with no decomposition.  Otherwise the decision is :func:`gram_full_rank`
    on the singular values of the Gram of the unit-scaled rows.
    """
    if rows.shape[0] < n:
        return False
    rows = _unit_scaled(rows)
    gram = rows.T @ rows
    return bool(gram_full_rank(np.linalg.svd(gram, compute_uv=False), n))


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _subset_table(m: int, n: int) -> np.ndarray:
    """Every n-subset of range(m), shape (C(m, n), n), in
    :func:`itertools.combinations` order.  Cached, so read-only."""
    flat = chain.from_iterable(combinations(range(m), n))
    table = np.fromiter(flat, dtype=np.intp, count=math.comb(m, n) * n).reshape(-1, n)
    table.flags.writeable = False
    return table


def _subset_chunks(m: int, n: int):
    """The n-subsets of range(m) as index arrays of at most ``SCAN_CHUNK``
    rows each, in :func:`itertools.combinations` order.

    An enumeration of at most ``SCAN_CHUNK`` subsets and ``_TABLE_INDICES``
    indices is one chunk, the cached read-only :func:`_subset_table`; a
    longer one is built chunk by chunk, so a scan that stops early never
    enumerates the rest.
    """
    count = math.comb(m, n)
    if count <= SCAN_CHUNK and count * n <= _TABLE_INDICES:
        if count:
            yield _subset_table(m, n)
        return
    pending = combinations(range(m), n)
    while True:
        flat = chain.from_iterable(islice(pending, SCAN_CHUNK))
        subsets = np.fromiter(flat, dtype=np.intp).reshape(-1, n)
        if subsets.shape[0] == 0:
            return
        yield subsets


def _subset_grams(rows: np.ndarray):
    """Every n-row subset of ``rows`` and its Gram matrix, chunk by chunk.

    Yields ``(subsets, grams)``: at most ``SCAN_CHUNK`` subsets as an
    index array of shape (c, n), in :func:`itertools.combinations` order,
    read-only when it comes from the cache (:func:`_subset_chunks`), and
    their Grams, shape (c, n, n).  Each row's outer product x x^T is formed
    once, and a subset's Gram is the sum of its rows' outer products, added
    in subset order: one ``take`` and n-1 ``take``-and-add passes per
    chunk.  Each entry then errs by at most n*eps times the squared norm of
    the rows, as a matmul's does, though the two may differ in the last
    bit.  Yields nothing when there are fewer than n rows.
    """
    m, n = rows.shape
    outer = rows[:, :, None] * rows[:, None, :]
    for subsets in _subset_chunks(m, n):
        grams = outer.take(subsets[:, 0], axis=0)
        for k in range(1, n):
            grams += outer.take(subsets[:, k], axis=0)
        yield subsets, grams


def subset_gram_svals(rows: np.ndarray):
    """Gram singular values of every n-row subset of ``rows``, chunk by chunk.

    Yields ``(subsets, svals)``: the subsets of each chunk of the n-subset
    enumeration, as an index array of shape (c, n) with c at most
    ``SCAN_CHUNK``, in :func:`itertools.combinations` order (read-only for
    an enumeration of one cached chunk), and their Grams' singular values
    in descending order, shape (c, n), from one batched SVD of the
    unit-scaled rows' Grams.  Each Gram is the sum of its rows' outer
    products (:func:`_subset_grams`), which errs by O(n*eps) times the
    squared norm of the rows, as the matmul of :func:`gram_nonsingular`
    does; ``gram_full_rank(svals, n)`` then gives the same decisions as
    :func:`gram_nonsingular` on each subset, but for a smallest singular
    value within that rounding of ``GRAM_RTOL`` times the largest.  Yields
    nothing when there are fewer than n rows.
    """
    for subsets, grams in _subset_grams(_unit_scaled(rows)):
        yield subsets, np.linalg.svd(grams, compute_uv=False)


def deficient_block_capacity(rows: np.ndarray, head: int | None = None) -> int:
    """Upper bound on how many of the first ``head`` rows of ``rows`` any
    rank-deficient block of ``rows`` holds; ``head`` defaults to all rows.

    An n-subset of the head is possibly deficient when it fails the floor
    test: its Gram's smallest eigenvalue, from one batched
    ``np.linalg.eigvalsh`` per chunk of the head's n-subset enumeration,
    is at most ``GRAM_RTOL`` (plus rounding slack) times the squared norm
    of all rows, which bounds the largest singular value of any block's
    Gram.  A tiny negative eigenvalue of a singular Gram counts as possibly
    deficient, the safe side.  Each Gram is the sum of its n rows' outer
    products (:func:`_subset_grams`), whose entries err by at most n*eps
    times the squared norm of all rows, and ``eigvalsh``, like the SVD, is
    backward stable: on a Gram G it errs by O(n*eps*||G||_2).  The slack,
    1e-12 times the squared norm of all rows, is about 1000 times both, so
    a subset that passes holds a full-rank Gram in every block of ``rows``
    it joins.  A block of b >= n rows whose Gram fails
    :func:`gram_nonsingular` has every n-subset possibly deficient.  So
    the bound is n-1 when no n-subset of the head is possibly deficient,
    and ``head`` otherwise, found at the first chunk that holds one.  It
    is ``head`` when ``head`` < n.  All rows are unit-scaled first, by the
    one power of two, so a head subset's Gram and the floor are those of
    a scan of all rows.  ``head`` is an integer in 0..m for m rows: any
    other value is a TypeError or ValueError naming it.
    """
    m, n = rows.shape
    if head is None:
        head = m
    else:
        try:
            head = operator.index(head)
        except TypeError:
            raise TypeError(f"head must be an integer, got {head!r}") from None
        if not 0 <= head <= m:
            raise ValueError(f"head must be in 0..{m}, got {head}")
    if head < n:
        return head
    rows = _unit_scaled(rows)
    floor = _floor(rows)
    for _, grams in _subset_grams(rows[:head]):
        if (np.linalg.eigvalsh(grams)[:, 0] <= floor).any():
            return head
    return n - 1


def _block_state(block: np.ndarray, floor: float) -> int:
    """The walk's state of one block: deficient, full rank, or surely full.

    Fewer than n rows are deficient by their count, with no decomposition.
    Otherwise a Gram smallest singular value above ``floor`` makes the
    block surely full, and with it every block that holds it; below the
    floor the exact test decides.
    """
    b, n = block.shape
    if b < n:
        return _DEFICIENT
    svals = np.linalg.svd(block.T @ block, compute_uv=False)
    return _SURELY_FULL if svals[-1] > floor else int(gram_full_rank(svals, n))


def min_rank_deficient_partition(
    rows: np.ndarray, max_blocks: int
) -> tuple[int, list[list[int]]] | None:
    """Smallest all-rank-deficient split of ``rows`` into <= max_blocks blocks.

    Returns ``(block_count, blocks)`` where blocks hold 0-based row indices,
    or None when every partition with at most ``max_blocks`` nonempty blocks
    contains a block of full rank.  Deterministic: for each block count the
    first witness in restricted-growth order is returned.  The rows are
    unit-scaled, then walked, one block count at a time from the smallest,
    with one block decomposition per distinct block the walk reaches.
    """
    m = rows.shape[0]
    rows = _unit_scaled(rows)
    floor = _floor(rows)
    # keyed by the member tuple: the walk appends rows in ascending order
    state_cache: dict[tuple[int, ...], int] = {}

    def block_state(members: tuple[int, ...]) -> int:
        hit = state_cache.get(members)
        if hit is None:
            hit = state_cache[members] = _block_state(rows[list(members)], floor)
        return hit

    def search(target: int) -> list[list[int]] | None:
        blocks: list[list[int]] = []

        def rec(i: int) -> bool:
            if i == m:
                return all(block_state(tuple(b)) == _DEFICIENT for b in blocks)
            for b in range(min(len(blocks) + 1, target)):
                if b == len(blocks):
                    blocks.append([])
                blocks[b].append(i)
                if block_state(tuple(blocks[b])) != _SURELY_FULL and rec(i + 1):
                    return True
                blocks[b].pop()
                if not blocks[b]:
                    blocks.pop()
            return False

        return [list(b) for b in blocks] if rec(0) else None

    # count 0 finds a split only for zero rows, (0, [])
    for count in range(max_blocks + 1):
        found = search(count)
        if found is not None:
            return len(found), found
    return None
