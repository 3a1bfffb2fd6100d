import numpy as np
import pytest

from slsid import (
    Assignment,
    Dataset,
    EnumerationLimitError,
    SolverConfig,
    bcd_solve,
    objective_integer,
    oracle_global,
    oracle_unique,
)
from slsid import fixtures
from slsid.model import SLModel
from slsid.oracle import canonical_labels, same_param_set

EXAMPLE1_ALT = np.array([[-0.5, 1.0], [1.0, 5.5]])
EXAMPLE2_ALT = np.array([[-1.4, 2.8, 4.0], [-2.0, -2.0, 4.0]])


def relabeled(a: Assignment, perm: tuple[int, ...]) -> Assignment:
    """Apply a subsystem relabeling: label j becomes perm[j-1]."""
    return Assignment(np.asarray(perm, dtype=int)[a.labels - 1])


def test_canonical_labels_permutation_invariant():
    labels = np.array([2, 2, 1, 3, 1])
    assert canonical_labels(labels) == (1, 1, 2, 3, 2)
    swapped = relabeled(Assignment(labels), (3, 1, 2)).labels
    assert canonical_labels(swapped) == canonical_labels(labels)


class TestExampleOne:
    def test_multiple_optimal_classes(self):
        model, data = fixtures.example_one()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        clean = [c for c in classes if not c.degenerate]
        assert len(clean) >= 2
        assert any(same_param_set(c.params, model.params) for c in clean)
        assert any(same_param_set(c.params, EXAMPLE1_ALT) for c in clean)
        assert not oracle_unique(data, 2)

    def test_augmented_unique(self):
        model, data = fixtures.example_one_augmented()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        assert len(classes) == 1 and not classes[0].degenerate
        assert same_param_set(classes[0].params, model.params)
        assert oracle_unique(data, 2)


class TestExampleTwo:
    def test_eight_samples_unique(self):
        model, data = fixtures.example_two()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        assert len(classes) == 1
        assert same_param_set(classes[0].params, model.params)
        assert classes[0].labels == tuple(fixtures.EXAMPLE2_LABELS)
        assert oracle_unique(data, 2)

    def test_seven_samples_two_classes(self):
        model, data = fixtures.example_two_seven()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        assert not oracle_unique(data, 2)
        exact = [c for c in classes if abs(c.objective) <= 1e-12]
        assert any(same_param_set(c.params, model.params) for c in exact)
        alt = [c for c in exact if same_param_set(c.params, EXAMPLE2_ALT)]
        assert alt
        # the alternate fit's switching sequence, canonically relabeled
        assert alt[0].labels == (1, 2, 2, 1, 2, 2, 1)


def test_permutation_closure():
    _, data = fixtures.example_one()
    optimum, classes = oracle_global(data, 2)
    for cls in classes:
        a = Assignment(np.array(cls.labels))
        flipped = relabeled(a, (2, 1))
        assert canonical_labels(flipped.labels) == cls.labels
        model = SLModel(cls.params)
        assert objective_integer(data, model, a) <= optimum + 1e-9


def test_degenerate_single_cluster_flagged():
    # two samples, S=2: every optimal assignment leaves a singleton or empty
    # cluster, so no clean class exists
    data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
    optimum, classes = oracle_global(data, 2)
    assert optimum <= 1e-12
    assert classes and all(c.degenerate for c in classes)
    assert not oracle_unique(data, 2)


def test_enumeration_limit_refused():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
    with pytest.raises(EnumerationLimitError):
        oracle_global(data, 2, limit=1000)


def _reference_scan(data, S, tol=1e-9):
    """Independent brute force: plain product enumeration, no increments."""
    import itertools

    best, optima = np.inf, []
    for labels in itertools.product(range(1, S + 1), repeat=data.N):
        arr = np.asarray(labels)
        sse = 0.0
        for s in range(1, S + 1):
            idx = np.flatnonzero(arr == s)
            if idx.size == 0:
                continue
            theta, *_ = np.linalg.lstsq(
                data.regressors[idx], data.outputs[idx], rcond=None
            )
            r = data.outputs[idx] - data.regressors[idx] @ theta
            sse += float(r @ r)
        if sse < best - tol:
            best, optima = sse, []
        if sse <= best + tol:
            optima.append(arr)
    # optima collected against a moving minimum; filter by the final one
    return best, {
        canonical_labels(arr)
        for arr in optima
        if _objective_of(data, arr, S) <= best + tol
    }


def _objective_of(data, labels, S):
    sse = 0.0
    for s in range(1, S + 1):
        idx = np.flatnonzero(labels == s)
        if idx.size == 0:
            continue
        theta, *_ = np.linalg.lstsq(data.regressors[idx], data.outputs[idx], rcond=None)
        r = data.outputs[idx] - data.regressors[idx] @ theta
        sse += float(r @ r)
    return sse


def test_gray_scan_matches_reference_enumeration():
    rng = np.random.default_rng(17)
    for trial in range(6):
        S = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        N = int(rng.integers(3, 7))
        data = Dataset(
            rng.uniform(-3, 3, size=(N, n)), rng.normal(0, 1.0, size=N)
        )
        optimum, classes = oracle_global(data, S)
        ref_opt, ref_classes = _reference_scan(data, S)
        assert optimum == pytest.approx(ref_opt, abs=1e-9)
        assert {c.labels for c in classes} == ref_classes, f"trial {trial}"


def test_oracle_never_above_bcd():
    rng = np.random.default_rng(5)
    for seed in range(6):
        n, S, N = 2, 2, int(rng.integers(4, 9))
        model = SLModel(rng.uniform(-3, 3, size=(S, n)))
        X = rng.uniform(-3, 3, size=(N, n))
        labels = Assignment(rng.integers(1, S + 1, size=N))
        y = np.einsum("ij,ij->i", X, model.params[labels.labels - 1])
        y += rng.normal(0, 0.2, size=N)
        data = Dataset(X, y, labels)
        optimum, _ = oracle_global(data, S)
        report = bcd_solve(data, SolverConfig(S=S, restarts=8, seed=seed))
        assert optimum <= report.objective + 1e-9


def test_appending_consistent_sample_keeps_optimum_zero():
    model, data = fixtures.example_two()
    x_new = np.array([3.0, 1.0, 2.0])
    grown = Dataset(
        np.vstack([data.regressors, x_new]),
        np.append(data.outputs, x_new @ model.params[0]),
        Assignment(np.append(data.truth.labels, 1)),
    )
    optimum, classes = oracle_global(grown, 2)
    assert optimum <= 1e-12
    assert len(classes) == 1
