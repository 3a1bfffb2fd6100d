"""Gram rank test and the rank-deficient partition search.

``gram_full_rank`` is the one rank decision of the package: the Gram
matrix of a set of regressor rows has full rank when its smallest singular
value exceeds a relative tolerance times its largest.
``min_rank_deficient_partition`` is the adversarial search used by the
excitation checker: the smallest number of nonempty blocks into which a set
of regressor rows can be split with every block's Gram matrix
rank-deficient.  The search walks restricted-growth strings depth-first and
prunes any branch as soon as one block reaches full rank, since adding rows
to a full-rank block cannot lower its rank.
"""

from __future__ import annotations

import numpy as np

GRAM_RTOL = 1e-10


def gram_full_rank(svals: np.ndarray, n: int, rtol: float = GRAM_RTOL) -> np.ndarray:
    """Whether a Gram matrix with singular values ``svals`` has full rank n.

    ``svals`` holds one Gram's values in descending order, or one Gram per
    row of a 2-D array; the result is a numpy bool, or one per row.  Fewer
    than n values means rank below n.  Scale-invariant: the smallest value
    must exceed ``rtol`` times the largest.
    """
    if svals.shape[-1] != n:
        return np.zeros(svals.shape[:-1], dtype=bool)
    # .T[k] reads column k of a stack, or item k of a single Gram's values
    # as a numpy scalar, which keeps the single-Gram call cheap
    top, low = svals.T[0], svals.T[-1]
    return (top > 0.0) & (low > rtol * top)


def gram_nonsingular(rows: np.ndarray, n: int, rtol: float = GRAM_RTOL) -> bool:
    """Whether sum_k x_k x_k^T over the given rows has full rank n.

    The decision is :func:`gram_full_rank` on the Gram's singular values.
    """
    if rows.shape[0] == 0:
        return False
    gram = rows.T @ rows
    return bool(gram_full_rank(np.linalg.svd(gram, compute_uv=False), n, rtol))


def min_rank_deficient_partition(
    rows: np.ndarray, max_blocks: int, rtol: float = GRAM_RTOL
) -> tuple[int, list[list[int]]] | None:
    """Smallest all-rank-deficient split of ``rows`` into <= max_blocks blocks.

    Returns ``(block_count, blocks)`` where blocks hold 0-based row indices,
    or None when every partition with at most ``max_blocks`` nonempty blocks
    contains a block of full rank.  Deterministic: for each block count the
    first witness in restricted-growth order is returned.
    """
    m, n = rows.shape
    if m == 0:
        return 0, []
    singular_cache: dict[frozenset[int], bool] = {}

    def block_singular(members: tuple[int, ...]) -> bool:
        key = frozenset(members)
        hit = singular_cache.get(key)
        if hit is None:
            hit = not gram_nonsingular(rows[list(members)], n, rtol)
            singular_cache[key] = hit
        return hit

    def search(target: int) -> list[list[int]] | None:
        blocks: list[list[int]] = []

        def rec(i: int) -> bool:
            if i == m:
                return True
            for b in range(min(len(blocks) + 1, target)):
                if b == len(blocks):
                    blocks.append([])
                blocks[b].append(i)
                if block_singular(tuple(blocks[b])) and rec(i + 1):
                    return True
                blocks[b].pop()
                if not blocks[b]:
                    blocks.pop()
            return False

        return [list(b) for b in blocks] if rec(0) else None

    for count in range(1, max_blocks + 1):
        found = search(count)
        if found is not None:
            return len(found), found
    return None
