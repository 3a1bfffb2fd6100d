import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slsid import Assignment, Dataset, SLModel, min_samples_ours, model, partitions, pe, pe_report
from slsid.partitions import (
    deficient_block_capacity,
    gram_full_rank,
    gram_nonsingular,
    min_rank_deficient_partition,
    subset_gram_svals,
)


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

    def test_full_rank_at_the_ends_of_the_float_range(self):
        # the Grams of rows near 1e-181 underflow and those of rows near
        # 1e160 overflow unless the rows are scaled first
        rows = np.array([[1.0, 0.0], [1.0, 1e-3]])
        for a in (-600, -525, 0, 450, 530):
            assert gram_nonsingular(np.ldexp(rows, a), 2), a
            assert not gram_nonsingular(np.ldexp(rows[[0, 0]], a), 2), a


@pytest.mark.parametrize("scale", [1e-158, 1e-150, 1.0, 1e150])
def test_fewer_rows_than_n_are_deficient_by_count(scale, monkeypatch):
    # b < n rows have rank below n whatever their Gram's rounding says, so
    # neither the exact test nor the walk's block state decomposes them;
    # one row at 1e-158 used to be called full rank in 2-D
    def refuse(*args, **kwargs):
        raise AssertionError("a block of fewer than n rows was decomposed")

    rng = np.random.default_rng(13)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for n in range(1, 5):
        for b in range(n):
            rows = rng.normal(size=(b, n)) * scale
            assert not gram_nonsingular(rows, n), (n, b)
            state = partitions._block_state(rows, partitions._floor(rows))
            assert state == partitions._DEFICIENT, (n, b)
    assert not gram_nonsingular(np.array([[1.0, 0.7]]) * scale, 2)


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

    def test_walk_stops_at_the_row_count(self):
        # m rows fill at most m blocks, so a budget past m searches no
        # further; walking every count up to 10**6 took about 4 s
        start = time.perf_counter()
        assert min_rank_deficient_partition(np.array([[0.0], [1.0], [2.0]]), 10**6) is None
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "max_blocks, error, message",
        [
            (-1, ValueError, "max_blocks must be >= 0, got -1"),
            (2.5, TypeError, "max_blocks must be an integer, got 2.5"),
            ("2", TypeError, "max_blocks must be an integer, got '2'"),
        ],
    )
    def test_max_blocks_must_be_a_count(self, max_blocks, error, message):
        with pytest.raises(error, match=message):
            min_rank_deficient_partition(np.eye(2), max_blocks)

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
    # for it, the first witness in restricted-growth order; the second half
    # of the trials scales rows by 10^k, k in -6..6; budgets past m rows
    # must give what a budget of m gives
    rng = np.random.default_rng(3)
    for trial in range(300):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        max_blocks = int(rng.integers(1, m + 4))
        rows = _structured_rows(rng, "repeated" if trial < 150 else "wide_scale", m, n)
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


def _reference_dfs(rows, max_blocks):
    """The depth-first search without the capacity bound, kept as a reference.

    A branch is pruned once a block's smallest Gram singular value clears
    the floor against all rows, which keeps every superset full rank; a
    complete split counts only when every block fails the exact test.
    """
    m, n = rows.shape
    if m == 0:
        return 0, []
    floor = (partitions.GRAM_RTOL + partitions._ROUNDING_SLACK) * float(np.sum(rows * rows))
    surely_cache: dict[frozenset[int], bool] = {}

    def surely_full(members) -> bool:
        key = frozenset(members)
        hit = surely_cache.get(key)
        if hit is None:
            block = rows[list(members)]
            hit = np.linalg.svd(block.T @ block, compute_uv=False)[-1] > floor
            surely_cache[key] = hit
        return hit

    def search(target: int) -> list[list[int]] | None:
        blocks: list[list[int]] = []

        def rec(i: int) -> bool:
            if i == m:
                return all(not gram_nonsingular(rows[b], n) for b in blocks)
            for b in range(min(len(blocks) + 1, target)):
                if b == len(blocks):
                    blocks.append([])
                blocks[b].append(i)
                if not surely_full(blocks[b]) and rec(i + 1):
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


def _structured_rows(rng, kind, m, n):
    """m rows in R^n of one of six kinds, some with many deficient blocks."""
    if kind == "generic":
        return rng.normal(size=(m, n))
    if kind == "repeated":
        return _mixed_rows(rng, m, n)
    if kind == "hyperplane":
        # most rows lie in one of a few coordinate hyperplanes
        rows = rng.normal(size=(m, n))
        for i in range(m):
            if n > 1 and rng.random() < 0.7:
                rows[i, rng.integers(min(3, n))] = 0.0
        return rows
    if kind == "zero":
        rows = rng.normal(size=(m, n))
        rows[rng.random(m) < 0.4] = 0.0
        return rows
    if kind == "integer":
        return rng.integers(-1, 2, size=(m, n)).astype(float)
    # rows whose norms span twelve decades: the relative rank test is not
    # monotone under adding rows here, which the search's prune and the
    # capacity bound must allow
    return rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 7, size=(m, 1))


ROW_KINDS = ("generic", "repeated", "hyperplane", "zero", "integer", "wide_scale")


def test_search_matches_unpruned_reference():
    # beyond brute-force range: the same count and first witness as the
    # search without the capacity bound, at budgets up to m + 3 for m rows
    rng = np.random.default_rng(11)
    for trial in range(240):
        kind = ROW_KINDS[trial % len(ROW_KINDS)]
        m, n = int(rng.integers(0, 12)), int(rng.integers(1, 5))
        max_blocks = int(rng.integers(1, max(6, m + 4)))
        rows = _structured_rows(rng, kind, m, n)
        expected = _reference_dfs(rows, max_blocks)
        assert min_rank_deficient_partition(rows, max_blocks) == expected, (trial, kind)


def test_wide_scale_block_keeps_unpruned_witness():
    # {x1, x3} alone is well conditioned, but beside x2 = 1e6 x1 the whole
    # block falls below the relative tolerance, so the walk accepts one
    # block, and the capacity bound must leave room for it
    rows = np.array([[1.0, 0.0], [1e6, 0.0], [0.0, 1.0]])
    assert gram_nonsingular(rows[[0, 2]], 2)
    assert not gram_nonsingular(rows, 2)
    assert deficient_block_capacity(rows) == 3
    assert min_rank_deficient_partition(rows, 2) == (1, [[0, 1, 2]])
    assert _reference_dfs(rows, 2) == (1, [[0, 1, 2]])


class TestCapacity:
    def test_generic_rows_hold_n_minus_one(self):
        rng = np.random.default_rng(4)
        for n in range(1, 5):
            assert deficient_block_capacity(rng.normal(size=(9, n))) == n - 1

    def test_fewer_rows_than_n(self):
        assert deficient_block_capacity(np.ones((2, 3))) == 2
        assert deficient_block_capacity(np.zeros((0, 3))) == 0

    def test_zero_and_collinear_rows(self):
        assert deficient_block_capacity(np.zeros((5, 2))) == 5
        collinear = np.outer(np.arange(1.0, 7.0), [1.0, -2.0])
        assert deficient_block_capacity(collinear) == 6

    def test_one_deficient_subset_gives_the_trivial_bound(self):
        # only the last pair is parallel: h = m, not the size 2 of that pair
        rows = np.random.default_rng(6).normal(size=(7, 2))
        rows[6] = 3.0 * rows[5]
        assert deficient_block_capacity(rows) == 7

    def test_head_bound_reads_the_head_against_the_floor_of_all_rows(self):
        # the parallel pair lies past a head of 5 rows, which is generic
        rows = np.random.default_rng(6).normal(size=(7, 2))
        rows[6] = 3.0 * rows[5]
        assert deficient_block_capacity(rows, 5) == 1
        assert deficient_block_capacity(rows, 7) == 7
        assert deficient_block_capacity(rows, 1) == 1
        # a head of rows near 1e-9 clears its own floor but not the floor
        # of a cluster whose other rows are near 1
        rows[:5] *= 1e-9
        rows[5:] = np.random.default_rng(7).normal(size=(2, 2))
        assert deficient_block_capacity(rows[:5]) == 1
        assert deficient_block_capacity(rows, 5) == 5
        # scaling every row by one power of two changes no bound
        assert deficient_block_capacity(np.ldexp(rows, 900), 5) == 5

    def test_scan_stops_at_first_deficient_chunk(self, monkeypatch):
        # 60 collinear rows in R^4 have C(60, 4) = 487635 n-subsets, all
        # deficient; the bound is decided by the first chunk alone
        chunks = []
        scan = partitions._subset_grams

        def counted(rows):
            for chunk in scan(rows):
                chunks.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(partitions, "_subset_grams", counted)
        rows = np.outer(np.arange(1.0, 61.0), [1.0, 2.0, 0.0, -1.0])
        cached = partitions._subset_table.cache_info()
        tracemalloc.start()
        try:
            assert deficient_block_capacity(rows) == 60
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [partitions.SCAN_CHUNK]
        # one chunk holds 4096 index rows and two 4096 x 4 x 4 Gram stacks,
        # 1.2 MB; the whole index table alone would take 15.6 MB, and it is
        # neither built nor cached
        assert peak < 4_000_000, peak
        assert partitions._subset_table.cache_info() == cached

    @pytest.mark.parametrize(
        "head, error", [(-1, ValueError), (4, ValueError), (10, ValueError), (2.5, TypeError), ("2", TypeError)]
    )
    def test_head_outside_the_rows_is_rejected(self, head, error):
        with pytest.raises(error, match="head"):
            deficient_block_capacity(np.ones((3, 3)), head)

    @pytest.mark.parametrize(
        "head, message", [(-1, "head must be >= 0, got -1"), (4, "head must be <= 3, got 4")]
    )
    def test_head_error_names_the_bound(self, head, message):
        with pytest.raises(ValueError, match=message):
            deficient_block_capacity(np.ones((3, 3)), head)

    def test_head_takes_any_integer_in_range(self):
        rows = np.eye(3)
        assert [deficient_block_capacity(rows, h) for h in range(4)] == [0, 1, 2, 2]
        assert deficient_block_capacity(rows, np.int64(2)) == 2

    def test_floor_by_eigenvalues_matches_svd_floor(self):
        # the scan's floor test on Gram eigenvalues decides as the floor
        # test on Gram singular values, one batched SVD over every n-subset
        def svd_floor_capacity(rows):
            m, n = rows.shape
            if m < n:
                return m
            floor = (partitions.GRAM_RTOL + partitions._ROUNDING_SLACK) * float(np.sum(rows * rows))
            sub = rows[np.array(list(combinations(range(m), n)))]
            svals = np.linalg.svd(np.swapaxes(sub, 1, 2) @ sub, compute_uv=False)
            return m if (svals[:, -1] <= floor).any() else n - 1

        rng = np.random.default_rng(12)
        seen = set()
        for trial in range(300):
            kind = ROW_KINDS[trial % len(ROW_KINDS)]
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            rows = _structured_rows(rng, kind, m, n)
            expected = svd_floor_capacity(rows)
            assert deficient_block_capacity(rows) == expected, (trial, kind)
            seen.add(expected == m)
        assert seen == {False, True}
        # rows diag(1, b) with b^2 at 1 - 1e-6 and 1 + 1e-6 times the floor
        # of the two rows, which itself counts b^2: just below the floor the
        # pair is possibly deficient, just above it is not
        c = partitions.GRAM_RTOL + partitions._ROUNDING_SLACK
        for factor, expected in ((1 - 1e-6, 2), (1 + 1e-6, 1)):
            b2 = c * factor / (1 - c * factor)
            rows = np.diag([1.0, np.sqrt(b2)])
            smallest = np.linalg.eigvalsh(rows.T @ rows)[0]
            assert abs(smallest / partitions._floor(rows) - factor) < 1e-9
            assert deficient_block_capacity(rows) == svd_floor_capacity(rows) == expected

    def test_bounds_every_reference_witness_block(self):
        rng = np.random.default_rng(8)
        for trial in range(120):
            kind = ROW_KINDS[trial % len(ROW_KINDS)]
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            rows = _structured_rows(rng, kind, m, n)
            capacity = deficient_block_capacity(rows)
            for blocks in set_partitions(range(m), 3):
                if all(not gram_nonsingular(rows[b], n) for b in blocks):
                    assert max(map(len, blocks)) <= capacity, (trial, kind)


def _matmul_capacity(rows, head):
    """The capacity scan with each head subset's Gram built by a matmul of
    its gathered rows, one ``eigvalsh`` over all of them, against the floor
    of all rows after the one power-of-two scaling."""
    m, n = rows.shape
    if head < n:
        return head
    rows = np.ldexp(rows, -math.frexp(np.abs(rows).max(initial=0.0))[1])
    floor = (partitions.GRAM_RTOL + partitions._ROUNDING_SLACK) * float(np.sum(rows * rows))
    sub = rows[np.array(list(combinations(range(head), n)))]
    smallest = np.linalg.eigvalsh(np.swapaxes(sub, 1, 2) @ sub)[:, 0]
    return head if (smallest <= floor).any() else n - 1


CLUSTER_KINDS = ("generic", "pair_in_head", "pair_past_head", "zero_row", "hyperplane", "wide_scale")


def _capacity_cluster(rng, kind, m, n):
    """m rows in R^n of one kind; the pairs lie at rows 0-1 and at the last
    two rows, past every head of at most m - 2 rows."""
    rows = rng.normal(size=(m, n))
    if kind == "pair_in_head" and m >= 2:
        rows[1] = -2.0 * rows[0]
    elif kind == "pair_past_head" and m >= 2:
        rows[-1] = 3.0 * rows[-2]
    elif kind == "zero_row":
        rows[rng.integers(m)] = 0.0
    elif kind == "hyperplane":
        rows[rng.random(m) < 0.5, 0] = 0.0
    elif kind == "wide_scale":
        rows[rng.random(m) < 0.5] *= 10.0 ** rng.choice([-6, 6])
    return rows


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 14),
    st.integers(1, 6),
    st.sampled_from(CLUSTER_KINDS),
    st.sampled_from([0, -600, 600]),
    st.integers(0, 2**32 - 1),
)
def test_capacity_matches_matmul_reference(n, m, S, kind, exponent, seed):
    # the Grams summed from per-row outer products decide every head subset
    # as the matmul of its rows does, on the whole cluster and on the head
    # of S(n-1)+1 rows that pe_report scans, down to rows near 1e-187
    rows = np.ldexp(_capacity_cluster(np.random.default_rng(seed), kind, m, n), exponent)
    for head in {m, min(m, S * (n - 1) + 1)}:
        assert deficient_block_capacity(rows, head) == _matmul_capacity(rows, head), head


def _svd_nonsingular(rows, n):
    """The nonsingularity test written out: the count rule, then the Gram of
    the rows scaled by one power of two, its SVD and the GRAM_RTOL rule."""
    m, width = rows.shape
    if m < n or width != n:
        return False
    rows = np.ldexp(rows, -math.frexp(np.abs(rows).max(initial=0.0))[1])
    svals = np.linalg.svd(rows.T @ rows, compute_uv=False)
    return bool(svals[-1] > model.GRAM_RTOL * svals[0])


def _nonsingular_case(rng, kind, m, n):
    """m rows in R^n: generic, with a parallel pair, with a zero row, or all
    in one hyperplane through the origin."""
    rows = rng.normal(size=(m, n))
    if kind == "parallel_pair" and m >= 2:
        rows[1] = -2.0 * rows[0]
    elif kind == "zero_row":
        rows[rng.integers(m)] = 0.0
    elif kind == "hyperplane":
        normal = rng.normal(size=n)
        rows -= np.outer(rows @ normal / (normal @ normal), normal)
    return rows


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 9),
    st.sampled_from(("generic", "parallel_pair", "zero_row", "hyperplane")),
    st.sampled_from([0, -600, 600]),
    st.integers(0, 2**32 - 1),
)
def test_gram_nonsingular_matches_svd_reference(n, m, kind, exponent, seed):
    # the walk's block test with no floor decides as the written-out rule,
    # on fewer than n rows, rows of another width and rows near 1e-181 or
    # 1e+181 as well
    rows = np.ldexp(_nonsingular_case(np.random.default_rng(seed), kind, m, n), exponent)
    for width in (n, n + 1):
        assert gram_nonsingular(rows, width) is _svd_nonsingular(rows, width), width
    assert gram_nonsingular(rows[:0], n) is False


def _generic_cluster(rng, m, n):
    rows = rng.normal(size=(m, n))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms * rng.uniform(1, 5, (m, 1))


def _refuse(*args, **kwargs):
    raise AssertionError("a generic cluster was walked or decomposed")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_generic_split_is_the_walks_first_witness(n, m, max_blocks, seed):
    # generic rows are split in closed form, ceil(m/(n-1)) runs of n-1
    # consecutive rows, and that is the count and witness of the walk
    assume(m >= n)
    rows = _generic_cluster(np.random.default_rng(seed), m, n)
    assume(deficient_block_capacity(rows) == n - 1)
    expected = _reference_dfs(rows, max_blocks)
    assert pe._consecutive_split(m, n - 1, max_blocks) == expected
    assert min_rank_deficient_partition(rows, max_blocks) == expected


def _generic_instance(rng, n, sizes):
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    X = _generic_cluster(rng, labels.size, n)
    model = SLModel(rng.uniform(-5, 5, (len(sizes), n)))
    return model, Dataset(X, X @ np.ones(n), Assignment(labels))


def test_generic_clusters_need_no_svd_and_no_walk(monkeypatch):
    # 14 rows per cluster > S(n-1) for (n, S) = (4, 4) and (3, 6): no split
    # exists; and every report on generic clusters of at least n rows,
    # certified or refuted, is decided by the capacity scan alone
    rng = np.random.default_rng(2)
    wide = [_generic_instance(rng, n, [14] * S) for n, S in ((4, 4), (3, 6))]
    cases = []
    for n, S in ((2, 2), (2, 3), (3, 2), (3, 3)):
        minimal = [n + (n - 1) * (S - s) for s in range(1, S + 1)]
        assert sum(minimal) == min_samples_ours(n, S)
        for sizes, certified in ((minimal, True), ([minimal[0] - 1] + minimal[1:], False)):
            cases.append((_generic_instance(rng, n, sizes), certified))
        for _ in range(4):
            sizes = rng.integers(n, 3 * n, size=S).tolist()
            cases.append((_generic_instance(rng, n, sizes), None))
    monkeypatch.setattr(partitions, "_block_state", _refuse)
    monkeypatch.setattr(pe, "min_rank_deficient_partition", _refuse)
    monkeypatch.setattr(pe, "check_cluster_pe", _refuse)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    for model, data in wide:
        report = pe_report(data, model)
        f = report.cond3_partition.min_deficient_blocks
        assert f == {s: None for s in range(1, model.S + 1)}
        assert report.certified
    verdicts = set()
    for (model, data), certified in cases:
        report = pe_report(data, model)
        assert report.cond3_partition.decided_by == {s: "scan" for s in range(1, model.S + 1)}
        assert all(report.cluster_pe)
        if certified is not None:
            assert report.certified is certified, report.sizes
        verdicts.add(report.certified)
    assert verdicts == {True, False}


class TestSubsetScan:
    def test_decisions_match_gram_nonsingular(self):
        # the brute-force test's row sets, one decision per n-subset
        rng = np.random.default_rng(3)
        for trial in range(150):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            rng.integers(1, 5)  # the brute-force test's max_blocks draw
            rows = _mixed_rows(rng, m, n)
            expected = [
                gram_nonsingular(rows[list(subset)], n)
                for subset in combinations(range(m), n)
            ]
            got = [
                bool(full)
                for _, svals in subset_gram_svals(rows)
                for full in gram_full_rank(svals, n)
            ]
            assert got == expected, f"trial {trial}"

    def test_chunks_follow_combinations_order(self, monkeypatch):
        rows = np.random.default_rng(5).normal(size=(7, 3))
        whole = list(subset_gram_svals(rows))
        monkeypatch.setattr(partitions, "SCAN_CHUNK", 4)
        chunks = list(subset_gram_svals(rows))
        assert [len(subsets) for subsets, _ in chunks] == [4] * 8 + [3]
        subsets = np.concatenate([subsets for subsets, _ in chunks])
        assert subsets.tolist() == [list(c) for c in combinations(range(7), 3)]
        assert len(whole) == 1
        assert np.array_equal(np.concatenate([sv for _, sv in chunks]), whole[0][1])
        # one chunk's table is cached and shared, so no caller may write it
        assert whole[0][0] is partitions._subset_table(7, 3)
        assert not whole[0][0].flags.writeable
        with pytest.raises(ValueError):
            whole[0][0][0, 0] = 1

    def test_fewer_rows_than_n_yields_nothing(self):
        assert list(subset_gram_svals(np.ones((2, 3)))) == []
