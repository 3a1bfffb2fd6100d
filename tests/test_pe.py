from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    Assignment,
    Dataset,
    SLModel,
    check_cluster_pe,
    check_distinct_params,
    check_no_separating_regressor,
    check_partition_condition,
    min_samples_bako,
    min_samples_ours,
    min_samples_table,
    min_samples_vidal,
    pe_report,
)
from slsid import fixtures, partitions, pe
from slsid.partitions import gram_nonsingular
from slsid.pe import CERTIFIED, REFUTED, UNDECIDED, check_genericity_sufficient


class TestSampleCounts:
    @pytest.mark.parametrize(
        "n,S,expected", [(3, 2, 8), (10, 7, 259), (4, 1, 4), (1, 1, 1)]
    )
    def test_ours(self, n, S, expected):
        assert min_samples_ours(n, S) == expected

    @pytest.mark.parametrize("n,S,expected", [(3, 2, 12), (10, 10, 1000), (6, 1, 6)])
    def test_bako(self, n, S, expected):
        assert min_samples_bako(n, S) == expected

    @pytest.mark.parametrize(
        "n,S,expected", [(3, 2, 9), (10, 10, 184755), (7, 1, 7), (1, 4, 4)]
    )
    def test_vidal(self, n, S, expected):
        assert min_samples_vidal(n, S) == expected

    def test_ours_always_integer(self):
        for n in range(1, 30):
            for S in range(1, 30):
                assert ((n - 1) * S * S + (n + 1) * S) % 2 == 0

    def test_vidal_exact_large(self):
        # must not lose precision to floating binomials
        assert min_samples_vidal(30, 30) == 118264581564861424 - 1

    def test_table_cells(self):
        table = min_samples_table(10, 7)
        cell = lambda key: (table[key].ours, table[key].bako, table[key].vidal)
        assert cell((6, 5)) == (80, 150, 461)
        assert cell((1, 4)) == (4, 16, 4)
        assert cell((1, 1)) == (1, 1, 1)

    def test_table_past_its_cell_bound_builds_no_cell(self, monkeypatch):
        # 4 million cells once ran past a minute; the bound fires first
        def no_cell(*counts):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(pe, "SampleCounts", no_cell)
        with pytest.raises(ValueError, match="n=2000, S=2000 has 4000000 cells, more than 10000"):
            min_samples_table(2000, 2000)
        monkeypatch.undo()
        monkeypatch.setattr(pe, "_MAX_CELLS", 12)
        assert len(min_samples_table(3, 4)) == len(min_samples_table(12, 1)) == 12
        for n, S in ((13, 1), (4, 4)):
            with pytest.raises(ValueError, match=f"n={n}, S={S} has {n * S} cells"):
                min_samples_table(n, S)

    def test_ours_never_exceeds_bako(self):
        # equality exactly when S == 1 (a single subsystem needs n samples
        # under both conditions)
        for n in range(1, 13):
            for S in range(1, 13):
                ours, bako = min_samples_ours(n, S), min_samples_bako(n, S)
                assert ours <= bako
                assert (ours == bako) == (S == 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_samples_ours(0, 2)
        with pytest.raises(ValueError):
            min_samples_table(3, 0)
        for count, n in (
            (min_samples_ours, 2.5), (min_samples_bako, 2.0), (min_samples_vidal, 2.0)
        ):
            with pytest.raises(TypeError, match=f"n must be an integer, got {n}"):
                count(n, 2)


class TestDistinctParams:
    def test_example_one(self):
        model, _ = fixtures.example_one()
        assert check_distinct_params(model)

    def test_duplicate_rejected(self):
        assert not check_distinct_params(SLModel(np.array([[1.0, 2.0], [1.0, 2.0]])))

    def test_single_subsystem_vacuous(self):
        assert check_distinct_params(SLModel(np.array([[0.0, 0.0]])))


class TestSeparatingRegressor:
    def test_example_one_passes(self):
        model, data = fixtures.example_one()
        ok, violations = check_no_separating_regressor(data, model)
        assert ok and violations == []

    def test_orthogonal_regressor_flagged(self):
        model, data = fixtures.example_one()
        bad = Dataset(
            np.vstack([data.regressors, [1.0, 1.0]]),  # (1,1) . (3,-3) == 0
            np.append(data.outputs, 2.0),
        )
        ok, violations = check_no_separating_regressor(bad, model)
        assert not ok
        assert violations == [(5, 1, 2)]

    def test_near_orthogonal_row_beside_far_larger_rows_flagged(self):
        # the first row is 1e-12 off orthogonal to (1, -1); beside rows near
        # 1e150 its norm underflowed when all rows shared one scale
        model = SLModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        row = np.array([1.0, 1.0 + 1e-12])
        for others in ([], [[1e150, 3e149], [2e149, 1e150]]):
            X = np.vstack([row * 1e-160] + others)
            data = Dataset(X, np.zeros(len(X)))
            assert check_no_separating_regressor(data, model) == (False, [(1, 1, 2)])

    def test_single_subsystem_vacuous(self):
        data = Dataset(np.ones((2, 2)), np.ones(2))
        ok, violations = check_no_separating_regressor(data, SLModel(np.ones((1, 2))))
        assert ok and violations == []


class TestClusterPE:
    def test_identity_cluster(self):
        _, data = fixtures.example_one()
        assert check_cluster_pe(data, data.truth, 1)

    def test_single_sample_cluster(self):
        data = Dataset(np.array([[1.0, 2.0], [1.0, 0.0]]), np.zeros(2))
        a = Assignment(np.array([1, 2]))
        assert not check_cluster_pe(data, a, 1)

    def test_empty_cluster(self):
        data = Dataset(np.eye(2), np.zeros(2))
        assert not check_cluster_pe(data, Assignment(np.array([1, 1])), 2)


class TestPartitionCondition:
    def test_example_one_refuted_with_singleton_witness(self):
        _, data = fixtures.example_one()
        check = check_partition_condition(data, data.truth, 2)
        assert check.status == REFUTED
        assert check.witness is not None
        assert all(len(b) == 1 for b in check.witness.blocks)
        # the witness must itself verify: every block rank-deficient
        for block in check.witness.blocks:
            rows = data.regressors[[k - 1 for k in block]]
            assert not gram_nonsingular(rows, data.n)

    def test_example_one_augmented_certified(self):
        _, data = fixtures.example_one_augmented()
        check = check_partition_condition(data, data.truth, 2)
        assert check.status == CERTIFIED
        assert check.permutation == (1, 2)

    def test_single_subsystem_reduces_to_whole_gram(self):
        data = Dataset(np.eye(2), np.zeros(2))
        a = Assignment(np.array([1, 1]))
        assert check_partition_condition(data, a, 1).status == CERTIFIED
        thin = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))
        assert check_partition_condition(thin, a, 1).status == REFUTED

    def test_certified_permutation_reverifies(self):
        _, data = fixtures.example_one_augmented()
        check = check_partition_condition(data, data.truth, 2)
        f = check.min_deficient_blocks
        S = 2
        for stage, cluster in enumerate(check.permutation, start=1):
            budget = S - stage + 1
            assert f[cluster] is None or f[cluster] > budget

    def test_oversized_cluster_undecided(self):
        # MAX_BLOCK_SIZE is 14: a 14-row cluster is searched, a 15-row one
        # is not
        assert pe.MAX_BLOCK_SIZE == 14
        rng = np.random.default_rng(0)
        X = rng.normal(size=(15, 2))
        data = Dataset(X, np.zeros(15))
        a = Assignment(np.ones(15, int))
        assert check_partition_condition(data, a, 1).status == UNDECIDED
        at_guard = Dataset(X[:14], np.zeros(14))
        a = Assignment(np.ones(14, int))
        assert check_partition_condition(at_guard, a, 1).status == CERTIFIED

    def test_permutation_is_smallest_passing_order(self):
        # against a brute force over all S! orders of the reported f values:
        # CERTIFIED with the lexicographically smallest order that passes
        # every stage, REFUTED exactly when no order passes.  Each cluster's
        # rows are scaled copies of a few random directions, so f varies
        # from 0 (empty) through small counts to None (unsplittable).
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(200):
            S = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            blocks, labels = [], []
            for s in range(1, S + 1):
                m = int(rng.integers(0, 7))
                dirs = rng.uniform(-3, 3, size=(int(rng.integers(1, 5)), n))
                picks = dirs[rng.integers(0, len(dirs), size=m)]
                blocks.append(picks * rng.uniform(0.5, 2, size=(m, 1)))
                labels += [s] * m
            if not labels:
                continue
            data = Dataset(np.vstack(blocks), np.zeros(len(labels)))
            check = check_partition_condition(data, Assignment(np.array(labels)), S)
            f = check.min_deficient_blocks
            passing = [
                order
                for order in permutations(range(1, S + 1))
                if all(f[s] is None or f[s] > S - t + 1 for t, s in enumerate(order, 1))
            ]
            where = f"trial {trial}: S={S} f={f}"
            if passing:
                assert check.status == CERTIFIED, where
                assert check.permutation == passing[0], where
            else:
                assert check.status == REFUTED and check.permutation is None, where
                w = check.witness
                assert f[w.cluster] is not None and f[w.cluster] <= w.budget, where
            seen.add((check.status, check.permutation == tuple(range(1, S + 1))))
        # the draws must reach every branch: refuted, and certified both in
        # label order and out of it
        assert seen == {(REFUTED, False), (CERTIFIED, True), (CERTIFIED, False)}

    def test_monotone_under_appending(self):
        # once certified, appending a sample to any cluster preserves the
        # certificate (a deficient split of the grown cluster restricts to
        # one of the original)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            n, S = 2, 2
            N = int(rng.integers(2 * n + 1, 9))
            X = rng.uniform(-5, 5, size=(N, n))
            labels = rng.integers(1, S + 1, size=N)
            data = Dataset(X, np.zeros(N), Assignment(labels))
            base = check_partition_condition(data, data.truth, S)
            if base.status != CERTIFIED:
                continue
            checked += 1
            x_new = rng.uniform(-5, 5, size=n)
            for target in range(1, S + 1):
                grown = Dataset(
                    np.vstack([X, x_new]),
                    np.zeros(N + 1),
                    Assignment(np.append(labels, target)),
                )
                assert (
                    check_partition_condition(grown, grown.truth, S).status == CERTIFIED
                )

    def test_certified_implies_enough_samples(self):
        # any n-1 rows are rank-deficient, so a cluster at stage s with at
        # most (S-s+1)(n-1) rows splits into S-s+1 deficient blocks; summing
        # the stage minima gives min_samples_ours exactly
        verdicts = {CERTIFIED: 0, REFUTED: 0, UNDECIDED: 0}
        tight = 0
        for n, S, data, a in _near_count_datasets(np.random.default_rng(11), 300):
            check = check_partition_condition(data, a, S)
            verdicts[check.status] += 1
            if check.status != CERTIFIED:
                continue
            sizes = a.cluster_sizes(S)
            for stage, cluster in enumerate(check.permutation, start=1):
                assert sizes[cluster - 1] >= (S - stage + 1) * (n - 1) + 1
            assert data.N >= min_samples_ours(n, S)
            tight += data.N == min_samples_ours(n, S)
        # the draws must reach both verdicts and certify at the count itself
        assert verdicts[CERTIFIED] >= 50 and verdicts[REFUTED] >= 50, verdicts
        assert tight >= 5

    def test_sample_order_does_not_change_verdict(self):
        # the witness blocks may change: the first restricted-growth split
        # found depends on the order of the rows
        for n, S, data, a in _near_count_datasets(np.random.default_rng(12), 300):
            perm = np.random.default_rng(n * 10 + S).permutation(data.N)
            shuffled = Dataset(data.regressors[perm], data.outputs[perm])
            base = check_partition_condition(data, a, S)
            moved = check_partition_condition(shuffled, Assignment(a.labels[perm]), S)
            assert (moved.status, moved.permutation) == (base.status, base.permutation)
            assert moved.min_deficient_blocks == base.min_deficient_blocks
            # a rank-deficient whole cluster has f = 1, which no stage allows
            if base.status == CERTIFIED:
                assert all(check_cluster_pe(data, a, s) for s in range(1, S + 1))
        # beside the row 1e6 x1, the whole cluster is rank-deficient, though
        # {x1, x2} is not: refuted in either order
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1e6, 0.0]])
        model = SLModel(np.array([[1.0, 2.0]]))
        for order in ([0, 1, 2], [0, 2, 1]):
            data = Dataset(X[order], np.zeros(3), Assignment(np.ones(3, int)))
            report = pe_report(data, model)
            assert report.cond3_partition.status == REFUTED, order
            assert report.cluster_pe == (False,) and not report.certified, order


def _near_count_datasets(rng, count):
    """Labeled rows whose cluster sizes straddle the certificate's minima.

    Cluster sizes are the stage minima (S-s+1)(n-1)+1, each moved by -1, 0
    or +1 and given to the labels in random order, so N lies within S of
    ``min_samples_ours(n, S)``.  Rows are Gaussian (generic), Gaussian with
    one row a multiple of another (a parallel pair), small integers
    (repeated, zero and dependent rows), or Gaussian scaled by 10^k with k
    in -6..6 (norms spanning twelve decades).
    """
    made = 0
    while made < count:
        n, S = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        sizes = [(S - s + 1) * (n - 1) + 1 + int(rng.integers(-1, 2)) for s in range(1, S + 1)]
        rng.shuffle(sizes)
        labels = np.repeat(np.arange(1, S + 1), sizes)
        N = labels.size
        if N < 2:
            continue
        rng.shuffle(labels)
        kind = made % 4
        if kind == 3:
            X = rng.normal(size=(N, n)) * 10.0 ** rng.integers(-6, 7, size=(N, 1))
        elif kind == 2:
            X = rng.integers(-2, 3, size=(N, n)).astype(float)
        else:
            X = rng.normal(size=(N, n))
            if kind == 1:
                i, j = rng.choice(N, size=2, replace=False)
                X[j] = rng.uniform(-2, 2) * X[i]
        made += 1
        yield n, S, Dataset(X, np.zeros(N)), Assignment(labels)


class TestGenericity:
    def test_example_two_sizes_meet_bound_but_triple_degenerates(self):
        # sizes (5, 3) meet n + (n-1)(S-s) = (5, 3), but x4 = 2 x1 + x2
        # breaks the every-n-subset condition
        _, data = fixtures.example_two()
        sizes = sorted(data.truth.cluster_sizes(2), reverse=True)
        n, S = 3, 2
        assert all(
            size >= n + (n - 1) * (S - s) for s, size in enumerate(sizes, start=1)
        )
        assert check_genericity_sufficient(data, data.truth, 2) is False

    def test_duplicated_regressor_fails(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
        data = Dataset(X, np.zeros(5), Assignment(np.array([1, 1, 1, 1, 1])))
        assert check_genericity_sufficient(data, data.truth, 1) is False

    def test_full_rank_square_single_cluster(self):
        data = Dataset(np.eye(3), np.zeros(3), Assignment(np.array([1, 1, 1])))
        assert check_genericity_sufficient(data, data.truth, 1) is True

    def test_augmented_example_one_passes(self):
        _, data = fixtures.example_one_augmented()
        assert check_genericity_sufficient(data, data.truth, 2) is True

    def test_guard_returns_none(self, monkeypatch):
        # C(633, 2) = 200028 pairs exceed MAX_GENERICITY_SUBSETS = 200000,
        # so the check gives up before scanning a single subset
        assert pe.MAX_GENERICITY_SUBSETS == 200_000
        # unit rows on 633 directions spread over a half turn: no two parallel
        phi = (np.arange(633) + 0.5) * np.pi / 633
        X = np.column_stack([np.cos(phi), np.sin(phi)])
        data = Dataset(X, np.zeros(633), Assignment(np.ones(633, int)))

        def no_scan(*args):
            raise AssertionError("subsets scanned past the guard")

        with monkeypatch.context() as patch:
            patch.setattr(pe, "subset_gram_svals", no_scan)
            assert check_genericity_sufficient(data, data.truth, 1) is None
        # C(632, 2) = 199396 pairs are within the guard and get scanned
        below = Dataset(X[:632], np.zeros(632), Assignment(np.ones(632, int)))
        assert check_genericity_sufficient(below, below.truth, 1) is True


    def test_verdicts_match_per_subset_reference(self):
        # the batched scan against one gram_nonsingular call per n-subset
        rng = np.random.default_rng(6)
        for trial in range(60):
            n, S = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            N = int(rng.integers(n * S, n * S + 8))
            X = rng.integers(-2, 3, size=(N, n)).astype(float)
            if trial % 2:
                X = rng.normal(size=(N, n))
            labels = rng.integers(1, S + 1, size=N)
            data = Dataset(X, np.zeros(N), Assignment(labels))
            sizes = sorted(data.truth.cluster_sizes(S), reverse=True)
            expected = all(
                size >= n + (n - 1) * (S - s) for s, size in enumerate(sizes, start=1)
            ) and all(
                gram_nonsingular(X[np.flatnonzero(labels == s)][list(subset)], n)
                for s in range(1, S + 1)
                for subset in combinations(range(int(np.sum(labels == s))), n)
            )
            assert check_genericity_sufficient(data, data.truth, S) is expected, trial


class TestInputValidation:
    def test_floor_keeps_deficient_grams_deficient(self):
        # rounding leaves sigma_min/sigma_max of a rank-deficient Gram near
        # 1e-16; at GRAM_RTOL every such Gram still counts as deficient
        rng = np.random.default_rng(5)
        for trial in range(300):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 30))
            basis = rng.standard_normal((n - 1, n))
            rows = rng.standard_normal((m, n - 1)) @ basis
            rows *= 10.0 ** rng.uniform(-3, 3, size=(m, 1))
            assert not gram_nonsingular(rows, n), trial
            assert not gram_nonsingular(rows[: n - 1], n), trial

    def test_model_n_mismatch_rejected(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a check ran before the n mismatch was caught")

        for name in ("check_distinct_params", "check_no_separating_regressor"):
            monkeypatch.setattr(pe, name, refuse)
        _, data = fixtures.example_one_augmented()
        model = SLModel(np.ones((2, 3)))
        with pytest.raises(ValueError, match="model has n=3 but the dataset has n=2"):
            pe_report(data, model)


def _guarded_instance(rng):
    """A model and a dataset whose first cluster is above MAX_BLOCK_SIZE rows."""
    labels = np.array([1] * 15 + [2] * 3)
    data = Dataset(rng.normal(size=(18, 2)), np.zeros(18), Assignment(labels))
    return SLModel(np.array([[1.0, 0.0], [0.0, 1.0]])), data


class TestPEReport:
    def test_example_one_not_certified(self):
        model, data = fixtures.example_one()
        report = pe_report(data, model)
        assert not report.certified
        assert report.cond1_distinct_params
        assert report.cond2_no_separating_regressor
        assert report.cond3_partition.status == REFUTED
        assert report.sizes == (2, 2)

    def test_example_one_augmented_certified(self):
        model, data = fixtures.example_one_augmented()
        report = pe_report(data, model)
        assert report.certified
        assert report.sizes == (3, 2)

    def test_report_skips_genericity_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pe_report ran the genericity scan")

        monkeypatch.setattr(pe, "check_genericity_sufficient", refuse)
        model, data = fixtures.example_one_augmented()
        report = pe_report(data, model)
        assert report.certified
        assert "genericity_sufficient" not in report.to_dict()

    def test_example_two_conditions(self):
        # the dependent triple {1,2,4} defeats the partition condition even
        # though the instance is uniquely identifiable (see the oracle tests)
        model, data = fixtures.example_two()
        report = pe_report(data, model)
        assert report.cond1_distinct_params
        assert report.cond2_no_separating_regressor
        assert all(report.cluster_pe)
        assert report.cond3_partition.status == REFUTED
        assert set(map(frozenset, report.cond3_partition.witness.blocks)) == {
            frozenset({1, 2, 4}),
            frozenset({3, 5}),
        }

    def test_report_records_which_path_decided_each_cluster(self, monkeypatch):
        # example 2's first cluster holds the dependent triple {1, 2, 4}, so
        # the walk decides it; its second cluster is generic; both get their
        # excitation from condition 3.  A cluster above MAX_BLOCK_SIZE rows
        # is the guard's, and the guard reads no other cluster, so each
        # cluster's excitation is its own Gram test
        read = []

        def counted(data, a, s):
            read.append(s)
            return check_cluster_pe(data, a, s)

        monkeypatch.setattr(pe, "check_cluster_pe", counted)
        model, data = fixtures.example_two()
        report = pe_report(data, model)
        assert report.cond3_partition.decided_by == {1: "walk", 2: "scan"}
        assert report.to_dict()["cond3_decided_by"] == ["walk", "scan"]
        assert read == []
        assert report.cluster_pe == (True, True)

        read.clear()
        model, data = _guarded_instance(np.random.default_rng(0))
        report = pe_report(data, model)
        assert report.undecided
        assert report.cond3_partition.decided_by == {1: "guard"}
        assert report.to_dict()["cond3_decided_by"] == ["guard", None]
        assert read == [1, 2]

    def test_scaled_rows_give_the_same_report(self):
        # rows near 1e-181 square to zero: unscaled, their Grams and norms
        # underflowed and most of these reports changed at 2^-600
        rng = np.random.default_rng(21)
        cases = [fixtures.example_one(), fixtures.example_one_augmented(), fixtures.example_two()]
        cases.append(_guarded_instance(rng))
        for trial in range(24):
            n = 2 + trial % 2
            N = int(rng.integers(3 * n, 11))
            X = rng.normal(size=(N, n))
            if trial % 3 == 1:
                X[1] = -2.0 * X[0]
            labels = rng.integers(1, 3, size=N)
            labels[:2] = 1
            model = SLModel(rng.uniform(-5, 5, (2, n)))
            if trial % 3 == 2:
                # a regressor 1e-12 off orthogonal to the parameter difference
                d = model.params[0] - model.params[1]
                x = rng.normal(size=n)
                x -= (x @ d) / (d @ d) * d
                X[2] = x + 1e-12 * np.linalg.norm(x) / np.linalg.norm(d) * d
            cases.append((model, Dataset(X, X @ model.params[0], Assignment(labels))))
        seen = set()
        for model, data in cases:
            expected = pe_report(data, model)
            cond2 = expected.cond2_no_separating_regressor
            seen.add((expected.certified, expected.undecided, cond2))
            for a in (-600, -525, -100, 100, 450):
                X, y = np.ldexp(data.regressors, a), np.ldexp(data.outputs, a)
                assert pe_report(Dataset(X, y, data.truth), model) == expected, a
        # certified, refuted, undecided, and failing condition 2
        assert {(True, False, True), (False, False, True), (False, True, True),
                (False, False, False)} <= seen

    def test_report_serializes(self):
        import json

        model, data = fixtures.example_one()
        payload = pe_report(data, model).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_requires_labels(self):
        model, data = fixtures.example_one()
        bare = Dataset(data.regressors, data.outputs)
        with pytest.raises(ValueError):
            pe_report(bare, model)

    def test_label_above_S_rejected(self):
        # a sixth sample labelled 3 under a two-subsystem model must not be
        # dropped from the certificate
        model, data = fixtures.example_one_augmented()
        extra = Dataset(
            np.vstack([data.regressors, [2.0, 1.0]]),
            np.append(data.outputs, 0.5),
            Assignment(np.append(data.truth.labels, 3)),
        )
        with pytest.raises(ValueError, match="above S=2"):
            pe_report(extra, model)
        with pytest.raises(ValueError, match="above S=2"):
            check_partition_condition(extra, extra.truth, 2)
        with pytest.raises(ValueError, match="above S=2"):
            check_genericity_sufficient(extra, extra.truth, 2)


@pytest.mark.parametrize(
    "labels, s, error, message",
    [
        (np.ones(3, int), 1, ValueError, "assignment has 3 labels for 8 samples"),
        (None, 0, ValueError, "s must be >= 1, got 0"),
        (None, 1.0, TypeError, "s must be an integer, got 1.0"),
    ],
)
def test_cluster_pe_arguments_rejected(labels, s, error, message):
    _, data = fixtures.example_two()
    a = data.truth if labels is None else Assignment(labels)
    with pytest.raises(error, match=message):
        check_cluster_pe(data, a, s)


@pytest.mark.parametrize("check", [check_partition_condition, check_genericity_sufficient])
@pytest.mark.parametrize(
    "S, error, message",
    [
        (2.5, TypeError, "S must be an integer, got 2.5"),
        ("2", TypeError, "S must be an integer, got '2'"),
        (0, ValueError, "S must be >= 1, got 0"),
    ],
)
def test_partition_checks_reject_bad_counts(check, S, error, message):
    _, data = fixtures.example_two()
    with pytest.raises(error, match=message):
        check(data, data.truth, S)


def _cluster_rows(rng, kind, n):
    """Rows of one cluster in R^n, of one of six kinds, at most 8 of them."""
    if kind == "empty":
        return np.zeros((0, n))
    if kind == "few":
        return rng.normal(size=(int(rng.integers(0, n)), n))
    rows = rng.normal(size=(int(rng.integers(max(n, 2), 9)), n))
    i, j = rng.choice(len(rows), 2, replace=False)
    if kind == "parallel":
        rows[j] = rng.choice([-2.0, 0.5, 3.0]) * rows[i]
    elif kind == "zero":
        rows[i] = 0.0
    elif kind == "hyperplane":
        rows[:, -1] = rows[:, 0] if n > 1 else 0.0
    return rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.sampled_from(["generic", "parallel", "zero", "hyperplane", "few", "empty"]),
            st.integers(-600, 450),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2**32 - 1),
)
def test_report_excitation_is_the_gram_test(n, clusters, seed):
    # each cluster's excitation, read from condition 3's smallest split at a
    # one-block budget, is the cluster's own Gram test
    rng = np.random.default_rng(seed)
    blocks = [np.ldexp(_cluster_rows(rng, kind, n), a) for kind, a in clusters]
    labels = np.repeat(np.arange(1, len(blocks) + 1), [len(b) for b in blocks])
    if labels.size == 0:
        return
    data = Dataset(np.vstack(blocks), np.zeros(labels.size), Assignment(labels))
    model = SLModel(rng.uniform(-5, 5, (len(blocks), n)))
    report = pe_report(data, model)
    for s in report.cond3_partition.min_deficient_blocks:
        assert report.cluster_pe[s - 1] == check_cluster_pe(data, data.truth, s), s


def test_report_scans_each_cluster_once(monkeypatch):
    # one capacity scan per cluster of at least n rows, walked or not
    scan = partitions._subset_grams
    scanned = []

    def counted(rows):
        scanned.append(len(rows))
        return scan(rows)

    monkeypatch.setattr(partitions, "_subset_grams", counted)
    for model, data in (fixtures.example_two(), fixtures.example_one_augmented()):
        scanned.clear()
        report = pe_report(data, model)
        sizes = [size for size in report.sizes if size >= data.n]
        assert scanned == sizes, report.cond3_partition.decided_by


def _parent_check(data, S):
    """``check_partition_condition`` with each cluster's capacity scan over
    all of its n-subsets, as before the head argument: the closed form on
    generic clusters, the walk on the rest."""
    with pytest.MonkeyPatch.context() as mp:
        full_scan = partitions.deficient_block_capacity
        mp.setattr(pe, "deficient_block_capacity", lambda rows, head: full_scan(rows))
        return check_partition_condition(data, data.truth, S)


def _head_cluster(rng, kind, n, m):
    """m rows in R^n of one kind: "first_pair" makes row 2 a multiple of
    row 1, "last_pair" the last row a multiple of an earlier one, and
    "last_zero" the last row zero."""
    rows = rng.normal(size=(m, n))
    if kind == "first_pair" and m >= 2:
        rows[1] = rng.choice([-2.0, 0.5, 3.0]) * rows[0]
    elif kind == "last_pair" and m >= 2:
        rows[-1] = rng.choice([-2.0, 0.5, 3.0]) * rows[int(rng.integers(0, m - 1))]
    elif kind == "last_zero":
        rows[-1] = 0.0
    elif kind == "hyperplane":
        rows[:, -1] = rows[:, 0] if n > 1 else 0.0
    elif kind == "scaled":
        picked = rng.random(m) < 0.5
        rows[picked] *= 10.0 ** rng.choice([-6, 6])
    return rows


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.lists(
        st.tuples(
            st.sampled_from(
                ["generic", "first_pair", "last_pair", "last_zero", "hyperplane", "scaled"]
            ),
            # a row count, or with None one of head - 1, head and head + 1
            st.one_of(st.integers(1, 14), st.tuples(st.none(), st.integers(-1, 1))),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2**32 - 1),
)
def test_head_scan_matches_the_scan_of_every_subset(n, S, clusters, seed):
    # a cluster of more than S(n-1) rows is scanned on the n-subsets of its
    # head, its first S(n-1)+1 rows, only; every verdict, witness and split
    # count is the one of the scan of all n-subsets, and a walked cluster
    # may only become one the scan decides
    S = max(S, len(clusters))
    rng = np.random.default_rng(seed)
    head = S * (n - 1) + 1
    sizes = [m if isinstance(m, int) else min(max(head + m[1], 1), 14) for _, m in clusters]
    blocks = [_head_cluster(rng, kind, n, m) for (kind, _), m in zip(clusters, sizes)]
    labels = np.repeat(np.arange(1, len(blocks) + 1), sizes)
    data = Dataset(np.vstack(blocks), np.zeros(labels.size), Assignment(labels))
    got, want = check_partition_condition(data, data.truth, S), _parent_check(data, S)
    assert got.status == want.status
    assert (got.permutation, got.witness) == (want.permutation, want.witness)
    assert got.min_deficient_blocks == want.min_deficient_blocks
    for s, path in want.decided_by.items():
        assert got.decided_by[s] in {path, "scan"}, (s, path)
        if got.decided_by[s] != path:
            assert path == "walk" and sizes[s - 1] > head, (s, path)


def _fourteen_rows(pair):
    """Four clusters of 14 normal rows at (n, S) = (4, 4), with cluster 1's
    row ``pair[1]`` set to -2 times its row ``pair[0]`` (0-based)."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(56, 4))
    X[pair[1]] = -2.0 * X[pair[0]]
    labels = np.repeat(np.arange(1, 5), 14)
    model = SLModel(rng.uniform(-5, 5, (4, 4)))
    return model, Dataset(X, X @ np.ones(4), Assignment(labels))


class TestHeadScan:
    def test_pair_past_the_head_needs_no_walk(self, monkeypatch):
        # rows 13 and 14 parallel: the head, rows 1..13, is generic, so the
        # scan settles every cluster, though a scan of all 14 rows would not
        model, data = _fourteen_rows((12, 13))
        rows = data.regressors[:14]
        assert partitions.deficient_block_capacity(rows) == 14
        assert partitions.deficient_block_capacity(rows, 13) == 3
        monkeypatch.setattr(pe, "min_rank_deficient_partition", _refuse_walk)
        report = pe_report(data, model)
        assert report.certified
        assert report.to_dict()["cond3_decided_by"] == ["scan"] * 4
        assert report.cluster_pe == (True,) * 4

    def test_pair_inside_the_head_is_walked(self):
        model, data = _fourteen_rows((0, 1))
        report = pe_report(data, model)
        assert report.certified
        assert report.to_dict()["cond3_decided_by"] == ["walk", "scan", "scan", "scan"]

    def test_scan_reads_the_head_only(self, monkeypatch):
        # C(13, 4) = 715 Grams per cluster, not C(14, 4) = 1001
        scan = partitions._subset_grams
        seen = []

        def counted(rows):
            for subsets, grams in scan(rows):
                seen.append((len(rows), len(subsets)))
                yield subsets, grams

        monkeypatch.setattr(partitions, "_subset_grams", counted)
        model, data = _fourteen_rows((12, 13))
        assert pe_report(data, model).certified
        assert seen == [(13, 715)] * 4


def _refuse_walk(*args, **kwargs):
    raise AssertionError("a cluster with a generic head was walked")
