import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid.partitions import gram_nonsingular, min_rank_deficient_partition


def set_partitions(items, max_blocks):
    """Yield all partitions of ``items`` into 1..max_blocks nonempty blocks.

    Brute-force reference for the partition search.  Partitions come in
    restricted-growth-string order, each as a list of blocks; blocks keep
    the input order of their elements.
    """
    items = list(items)
    m = len(items)
    if m == 0 or max_blocks < 1:
        return
    code = [0] * m

    def rec(i, used):
        if i == m:
            blocks = [[] for _ in range(used)]
            for idx, b in enumerate(code):
                blocks[b].append(items[idx])
            yield blocks
            return
        for b in range(min(used + 1, max_blocks)):
            code[i] = b
            yield from rec(i + 1, max(used, b + 1))

    # the first element always opens block 0
    yield from rec(1, 1)


def _stirling(m, j):
    # second-kind Stirling numbers by recurrence
    table = [[0] * (j + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for a in range(1, m + 1):
        for b in range(1, j + 1):
            table[a][b] = b * table[a - 1][b] + table[a - 1][b - 1]
    return table[m][j]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4))
def test_partition_count_matches_stirling_sum(m, max_blocks):
    items = list(range(m))
    parts = list(set_partitions(items, max_blocks))
    expected = sum(_stirling(m, j) for j in range(1, min(m, max_blocks) + 1))
    assert len(parts) == expected
    for blocks in parts:
        flat = sorted(x for b in blocks for x in b)
        assert flat == items
        assert all(b for b in blocks)
        assert len(blocks) <= max_blocks


def test_partitions_three_elements_two_blocks():
    parts = [tuple(map(tuple, p)) for p in set_partitions(["a", "b", "c"], 2)]
    assert (("a", "b", "c"),) in parts
    assert (("a", "b"), ("c",)) in parts
    assert (("a",), ("b", "c")) in parts
    assert (("a", "c"), ("b",)) in parts
    assert len(parts) == 4


class TestGram:
    def test_identity_pair(self):
        assert gram_nonsingular(np.eye(2), 2)

    def test_single_row_rank_deficient(self):
        assert not gram_nonsingular(np.array([[1.0, 2.0]]), 2)

    def test_empty(self):
        assert not gram_nonsingular(np.zeros((0, 2)), 2)

    def test_scale_invariance(self):
        rows = np.array([[1.0, 0.0], [1.0, 1e-3]])
        assert gram_nonsingular(rows, 2) == gram_nonsingular(rows * 1e6, 2)


class TestMinRankDeficientPartition:
    def test_two_independent_rows_split_into_singletons(self):
        rows = np.eye(2)
        count, blocks = min_rank_deficient_partition(rows, 2)
        assert count == 2
        assert sorted(map(tuple, blocks)) == [(0,), (1,)]

    def test_no_split_within_budget(self):
        # three pairwise-independent rows in R^2: any 2-split leaves a
        # full-rank pair together
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        assert min_rank_deficient_partition(rows, 2) is None
        count, _ = min_rank_deficient_partition(rows, 3)
        assert count == 3

    def test_collinear_rows_stay_in_one_block(self):
        rows = np.array([[1.0, 1.0], [2.0, 2.0], [-3.0, -3.0]])
        count, blocks = min_rank_deficient_partition(rows, 3)
        assert count == 1
        assert blocks == [[0, 1, 2]]

    def test_dependent_triple_enables_two_block_split(self):
        # x4 = 2 x1 + x2 keeps {x1, x2, x4} in a 2-dim subspace of R^3
        rows = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 1.0],
                [1.0, 3.0, -1.0],
                [2.0, 1.0, 1.0],
                [-1.0, 2.0, 1.0],
            ]
        )
        count, blocks = min_rank_deficient_partition(rows, 2)
        assert count == 2
        assert sorted(map(tuple, blocks)) == [(0, 1, 3), (2, 4)]
        for block in blocks:
            assert not gram_nonsingular(rows[block], 3)

    def test_empty_input(self):
        assert min_rank_deficient_partition(np.zeros((0, 2)), 2) == (0, [])

    def test_witness_blocks_all_deficient_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            rows = rng.integers(-2, 3, size=(m, n)).astype(float)
            found = min_rank_deficient_partition(rows, 3)
            if found is None:
                continue
            count, blocks = found
            assert count == len(blocks)
            for block in blocks:
                assert not gram_nonsingular(rows[block], n)


def _mixed_rows(rng, m, n):
    """m rows in R^n: generic draws, exact repeats and scaled copies."""
    rows = rng.uniform(-3, 3, size=(m, n))
    for i in range(1, m):
        kind = rng.integers(3)
        if kind == 1:
            rows[i] = rows[rng.integers(i)]
        elif kind == 2:
            rows[i] = rng.choice([-2.0, 0.5, 3.0]) * rows[rng.integers(i)]
    return rows


def test_search_matches_brute_force_reference():
    # the search must return the smallest all-deficient block count and,
    # for it, the first witness in restricted-growth order
    rng = np.random.default_rng(3)
    for trial in range(150):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        max_blocks = int(rng.integers(1, 5))
        rows = _mixed_rows(rng, m, n)
        expected = None
        for blocks in set_partitions(range(m), max_blocks):
            if all(not gram_nonsingular(rows[b], n) for b in blocks):
                if expected is None or len(blocks) < len(expected):
                    expected = blocks
        found = min_rank_deficient_partition(rows, max_blocks)
        if expected is None:
            assert found is None, f"trial {trial}"
        else:
            assert found == (len(expected), expected), f"trial {trial}"
