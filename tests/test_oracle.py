import inspect
import itertools
import sys
import time
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    Assignment,
    Dataset,
    EnumerationLimitError,
    SolverConfig,
    SolverFailure,
    bcd_solve,
    objective_integer,
    oracle_global,
    pe_report,
    simulate,
)
from slsid import fixtures, oracle
from slsid.model import SLModel, fit_members, moment_table
from slsid.partitions import gram_nonsingular
from slsid.oracle import same_param_set, unique_optimum

EXAMPLE1_ALT = np.array([[-0.5, 1.0], [1.0, 5.5]])
EXAMPLE2_ALT = np.array([[-1.4, 2.8, 4.0], [-2.0, -2.0, 4.0]])


def canonical_labels(labels: np.ndarray) -> tuple[int, ...]:
    """Renumber labels by first appearance; permutation-invariant."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out.append(mapping[lab])
    return tuple(out)


def relabeled(a: Assignment, perm: tuple[int, ...]) -> Assignment:
    """Apply a subsystem relabeling: label j becomes perm[j-1]."""
    return Assignment(np.asarray(perm, dtype=int)[a.labels - 1])


def test_same_param_set_compares_banks_as_sets():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert same_param_set(A, A[::-1]) and same_param_set(A, A + 1e-8)
    assert not same_param_set(A, A + 1e-6)
    # banks of different shapes are never the same set
    assert not same_param_set(A, A[:1]) and not same_param_set(A, A.T[:, :1])


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
        assert not unique_optimum(classes)

    def test_augmented_unique(self):
        model, data = fixtures.example_one_augmented()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        assert len(classes) == 1 and not classes[0].degenerate
        assert same_param_set(classes[0].params, model.params)
        assert unique_optimum(classes)


class TestExampleTwo:
    def test_eight_samples_unique(self):
        model, data = fixtures.example_two()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        assert len(classes) == 1
        assert same_param_set(classes[0].params, model.params)
        assert classes[0].labels == tuple(fixtures.EXAMPLE2_LABELS)
        assert unique_optimum(classes)

    def test_seven_samples_two_classes(self):
        model, data = fixtures.example_two_seven()
        optimum, classes = oracle_global(data, 2)
        assert optimum <= 1e-12
        assert not unique_optimum(classes)
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
    assert not unique_optimum(classes)


def test_enumeration_limit_refused():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
    with pytest.raises(EnumerationLimitError):
        oracle_global(data, 2, limit=1000)


def _pure_noise(N):
    """Rows uniform on (-3, 3) and standard-normal outputs, seed 0."""
    rng = np.random.default_rng(0)
    return Dataset(rng.uniform(-3, 3, size=(N, 2)), rng.normal(size=N))


@pytest.mark.parametrize("N", [800, 6000])
def test_enumeration_limit_on_long_noise(N):
    # one prefix length per two samples: the budget, not Python's frame
    # limit, stops the pass
    with pytest.raises(EnumerationLimitError):
        oracle_global(_pure_noise(N), 2, limit=1000)


def test_frame_depth_does_not_grow_with_samples():
    # 1000 prefix lengths at N = 2000, and 100 frames to spare above the
    # caller's: a pass whose depth grows with the lengths fails here
    data = _pure_noise(2000)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(EnumerationLimitError):
            oracle_global(data, 2, limit=1000)
    finally:
        sys.setrecursionlimit(old)


def test_negative_limit_rejected():
    # a negative budget is a usage error, not an enumeration limit; a zero
    # budget stays an EnumerationLimitError (test_node_budget_on_zero_outputs)
    _, data = fixtures.example_two()
    with pytest.raises(ValueError, match="limit must be >= 0, got -5"):
        oracle_global(data, 2, limit=-5)


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


def _reference_degenerate(data, labels, S):
    """Whether some cluster 1..S is empty or has a singular Gram."""
    X = data.regressors
    return not all(gram_nonsingular(X[labels == s], data.n) for s in range(1, S + 1))


def _random_instance(rng, S, n, N, kind):
    X = rng.uniform(-3, 3, size=(N, n))
    if kind == "repeated" and N > 1:
        X[-1] = X[0]
    if kind == "collinear" and N > 1:
        X[1:] = X[0] * rng.uniform(-2, 2, size=(N - 1, 1))
    if kind == "scaled":
        X *= 10.0 ** rng.integers(-6, 7, size=(N, 1))
    y = np.zeros(N) if kind == "zero" else rng.normal(0, 1.0, size=N)
    return Dataset(X, y)


def test_random_instances_match_reference_enumeration():
    rng = np.random.default_rng(2024)
    # N = 1, N = S and N > S for every S and n; N = 1 < S is rejected
    cases = [
        (S, n, N)
        for S in range(1, 5)
        for n in range(1, 4)
        for N in sorted({1, S, 5})
    ]
    kinds = ("generic", "repeated", "collinear", "zero")
    for trial, (S, n, N) in enumerate(cases):
        kind = kinds[trial % len(kinds)]
        data = _random_instance(rng, S, n, N, kind)
        if N < S:
            with pytest.raises(ValueError, match=f"need at least S={S} samples"):
                oracle_global(data, S)
            continue
        optimum, classes = oracle_global(data, S)
        ref_opt, ref_classes = _reference_scan(data, S)
        where = f"S={S} n={n} N={N} {kind}"
        assert optimum == pytest.approx(ref_opt, abs=1e-9), where
        assert [c.labels for c in classes] == sorted(ref_classes), where
        for c in classes:
            want = _reference_degenerate(data, np.asarray(c.labels), S)
            assert c.degenerate == want, f"{where} {c.labels}"
    # rows scaled by 10^-6..10^6, where a Gram solve can miss the fit by far:
    # the optimum to 1e-6 relative, and the reference's best string among the
    # classes; the classes may differ at the 1e-9 edge, where the two fits'
    # rounding decides
    for S, n, N in cases:
        if N < S:
            continue
        data = _random_instance(rng, S, n, N, "scaled")
        optimum, classes = oracle_global(data, S)
        ref_opt, ref_classes = _reference_scan(data, S)
        where = f"S={S} n={n} N={N} scaled"
        assert optimum == pytest.approx(ref_opt, rel=1e-6, abs=1e-9), where
        best = min(sorted(ref_classes), key=lambda lab: _objective_of(data, np.asarray(lab), S))
        assert best in {c.labels for c in classes}, where


def test_classes_match_per_cluster_least_squares():
    # the scan's chunked fits against fit_members on each class's labels
    # (test_bcd holds the kernel's lstsq reference): equal to rounding,
    # looser where a rank-deficient Gram is solved
    rng = np.random.default_rng(31)
    cases = [
        (S, n, N)
        for S in range(1, 5)
        for n in range(1, 4)
        for N in sorted({S, 5})
    ]
    for S, n, N in cases:
        for kind in ("generic", "repeated", "collinear", "zero"):
            data = _random_instance(rng, S, n, N, kind)
            X, y = data.regressors, data.outputs
            for c in oracle_global(data, S)[1]:
                where = f"S={S} n={n} N={N} {kind} {c.labels}"
                labels = np.asarray(c.labels)
                member = (labels == np.arange(1, S + 1)[:, None]).astype(float)
                params, full = fit_members(moment_table(data), member, n, data)
                assert c.degenerate == (not full.all()), where
                rtol = 1e-7 if c.degenerate else 1e-10
                np.testing.assert_allclose(
                    c.params, params, rtol=rtol,
                    atol=rtol * np.abs(params).max(), err_msg=where,
                )
                exact = 0.0
                for s in range(1, S + 1):
                    r = y[labels == s] - X[labels == s] @ params[s - 1]
                    exact += float(r @ r)
                assert abs(c.objective - exact) <= 1e-12 * (1 + abs(c.objective)), where


def _stirling_sum(N, S):
    """S(N,1) + ... + S(N,S), second-kind Stirling numbers by recurrence."""
    row = [1] + [0] * S  # S(0, k)
    for _ in range(N):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, S + 1)]
    return sum(row[1:])


def _same_classes(a, b):
    assert a[0] == b[0]
    assert len(a[1]) == len(b[1])
    for c, d in zip(a[1], b[1]):
        assert c.labels == d.labels and c.degenerate == d.degenerate
        assert c.objective == d.objective
        np.testing.assert_array_equal(c.params, d.params)


def _no_bound(data, S, best, score):
    # no source of U gives a bound, so the pass drops no prefix: it is the
    # scan of every string
    return np.inf


def test_small_chunks_give_identical_results(monkeypatch):
    rng = np.random.default_rng(3)
    noisy = Dataset(rng.uniform(-3, 3, size=(8, 2)), rng.normal(0, 1.0, size=8))
    zero = Dataset(rng.uniform(-3, 3, size=(7, 2)), np.zeros(7))
    tol = 0.5
    monkeypatch.setattr(oracle, "_OPTIMUM_TOL", tol)
    default = oracle_global(noisy, 2), oracle_global(zero, 3)
    monkeypatch.setattr(oracle, "_CHUNK", 3)
    small = oracle_global(noisy, 2), oracle_global(zero, 3)
    # unpruned, the first 3-string chunk (all ones, then a lone 2 in the
    # last or the second-to-last place) keeps candidates a later chunk's
    # optimum drops
    monkeypatch.setattr(oracle, "_upper_bound", _no_bound)
    unpruned = oracle_global(noisy, 2), oracle_global(zero, 3)
    first = [np.ones(8, dtype=int) for _ in range(3)]
    first[1][-1] = first[2][-2] = 2
    assert min(_objective_of(noisy, lab, 2) for lab in first) > default[0][0] + tol
    for a, b, c in zip(default, small, unpruned):
        _same_classes(a, b)
        _same_classes(a, c)
    # _reference_scan tracks its minimum only to within tol, so filter here
    objectives = {
        canonical_labels(lab): _objective_of(noisy, np.asarray(lab), 2)
        for lab in itertools.product((1, 2), repeat=8)
    }
    optimum = min(objectives.values())
    assert default[0][0] == pytest.approx(optimum, abs=1e-12)
    want = sorted(lab for lab, obj in objectives.items() if obj <= optimum + tol)
    assert [c.labels for c in small[0][1]] == want
    assert len(small[1][1]) == _stirling_sum(7, 3)


def test_no_least_squares_call_per_assignment(monkeypatch):
    rng = np.random.default_rng(8)
    S, N = 2, 10
    labels = Assignment(rng.permutation(np.resize(np.arange(1, S + 1), N)))
    model = SLModel(rng.uniform(-5, 5, size=(S, 2)))
    X = rng.uniform(-5, 5, size=(N, 2))
    data = Dataset(X, np.einsum("ij,ij->i", X, model.params[labels.labels - 1]))
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    _, classes = oracle_global(data, S)
    assert len(classes) == 1
    assert len(calls) == 0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(2, 3),
    st.integers(1, 2),
    st.integers(0, 4),
    st.booleans(),
)
def test_sample_permutation_permutes_classes(seed, S, n, extra, zero):
    N = S + extra
    rng = np.random.default_rng(seed)
    data = _random_instance(rng, S, n, N, "zero" if zero else "generic")
    perm = rng.permutation(N)
    moved = Dataset(data.regressors[perm], data.outputs[perm])
    _, classes = oracle_global(data, S)
    _, moved_classes = oracle_global(moved, S)
    back = {}
    for c in moved_classes:
        labels = np.empty(N, dtype=int)
        labels[perm] = c.labels
        back[canonical_labels(labels)] = c.degenerate
    assert back == {c.labels: c.degenerate for c in classes}


@pytest.mark.parametrize("S", [0, -1])
def test_subsystem_count_below_one_rejected(S):
    _, data = fixtures.example_one()
    with pytest.raises(ValueError, match="S must be >= 1"):
        oracle_global(data, S)


@pytest.mark.parametrize("S", [2.0, "2"])
def test_non_integer_subsystem_count_rejected(S):
    # rejected at entry, naming the argument, not deep inside the pass
    _, data = fixtures.example_one()
    with pytest.raises(TypeError, match=f"S must be an integer, got {S!r}"):
        oracle_global(data, S)


@pytest.mark.parametrize("limit", [2.5, float("nan"), float("inf")])
def test_non_integer_limit_rejected(limit):
    # a NaN budget would compare false against every node count and so
    # never stop the search
    _, data = fixtures.example_one()
    with pytest.raises(TypeError, match="limit must be an integer"):
        oracle_global(data, 2, limit=limit)


def test_integer_like_subsystem_counts_accepted():
    _, data = fixtures.example_one()
    _same_classes(oracle_global(data, np.int64(2)), oracle_global(data, 2))
    _same_classes(oracle_global(data, True), oracle_global(data, 1))


def _exact_repr(result):
    """repr of an oracle result with every float at full precision."""
    with np.printoptions(precision=17, floatmode="unique"):
        return repr(result)


def _output_kind(rng, X, S, kind, sigma=0.0):
    N, n = X.shape
    if kind == "zero":
        return np.zeros(N)
    if kind == "noisy":
        return rng.normal(0, 1.0, size=N)
    params = rng.uniform(-3, 3, size=(S, n))
    y = np.einsum("ij,ij->i", X, params[rng.integers(0, S, size=N)])
    return y + sigma * rng.normal(size=N) if sigma else y


def _scaled_rows(seed, N=8):
    """n=2 rows whose scales differ by up to 1e12, and pure-noise outputs."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(N, 2)) * 10.0 ** rng.integers(-6, 7, size=(N, 1))
    return Dataset(X, rng.normal(0, 1, size=N))


def _failing_descent(data, cfg):
    raise SolverFailure(f"all {cfg.restarts} restarts degenerated (clusters kept emptying)")


def _bound_source(best, upper):
    """Which source gave ``_upper_bound``'s U for the last best SSE."""
    if best is None:
        return "guess"
    if best < np.inf:
        return "best string"
    return "descent" if upper < np.inf else "no bound"


def test_pruning_changes_nothing(monkeypatch):
    # whichever source gives U (the guess, the guess pass's best string, the
    # descent, or none when the descent fails), the pruned results are the
    # scan's bit for bit; with no bound from any source the pass is the scan
    rng = np.random.default_rng(41)
    # 9 lengths per S from max(S, 2), so each output kind falls on
    # different N at each S
    cases = [(S, N) for S in range(1, 4) for N in range(max(S, 2), max(S, 2) + 9)]
    outputs = (
        ("noisy", 0.0), ("planted", 0.0), ("zero", 0.0), ("planted", 1e-3), ("planted", 1e-6)
    )
    results = []
    for i, (S, N) in enumerate(cases):
        n = int(rng.integers(1, 4))
        rows = ("generic", "repeated", "collinear", "scaled")[i % 4]
        kind, sigma = outputs[i % 5]
        data = _random_instance(rng, S, n, N, rows)
        data = Dataset(data.regressors, _output_kind(rng, data.regressors, S, kind, sigma))
        results.append((f"S={S} N={N} n={n} {rows} {kind} {sigma}", data, S))
    # the guess pass keeps no string on these two; the descent then sets U
    # on pure noise, and is made to fail on the scaled rows
    results.append(("pure noise S=2 N=10", _random_instance(rng, 2, 2, 10, "generic"), 2))
    broken = _scaled_rows(18)
    results.append(("scaled rows, seed 18", broken, 2))

    def solve(data, cfg):
        return (_failing_descent if data is broken else bcd_solve)(data, cfg)

    monkeypatch.setattr(oracle, "bcd_solve", solve)
    real = oracle._upper_bound
    sources = []

    def spy(data, S, best, score):
        upper = real(data, S, best, score)
        sources.append(_bound_source(best, upper))
        return upper

    monkeypatch.setattr(oracle, "_upper_bound", spy)
    outs, final = [], set()
    for where, data, S in results:
        outs.append(oracle_global(data, S))
        # the source of the U that the call's last pass ran with
        final.add(sources[-1])
    assert final == {"guess", "best string", "descent", "no bound"}
    monkeypatch.setattr(oracle, "_upper_bound", _no_bound)
    for (where, data, S), pruned in zip(results, outs):
        full = oracle_global(data, S)
        assert _exact_repr(pruned) == _exact_repr(full), where
        _same_classes(pruned, full)


def test_failed_descent_leaves_the_scan(monkeypatch):
    # the guess pass keeps a string here, so U would come from it; with that
    # string hidden U comes from the descent, made to fail, which leaves no
    # bound, and the second pass scans every string
    data = _scaled_rows(16)
    monkeypatch.setattr(oracle, "bcd_solve", _failing_descent)
    real = oracle._upper_bound
    bounds = []

    def from_descent(data, S, best, score):
        bounds.append(real(data, S, None if best is None else np.inf, score))
        return bounds[-1]

    monkeypatch.setattr(oracle, "_upper_bound", from_descent)
    best, classes = oracle_global(data, 2)
    assert len(bounds) == 2 and bounds[1] == np.inf
    ref_best, ref_labels = _reference_scan(data, 2)
    assert best == pytest.approx(ref_best, rel=1e-12)
    assert {c.labels for c in classes} == ref_labels


def test_scaled_rows_fit_exactly():
    # rows whose scales differ by up to 1e12: the Gram of a cluster holding
    # rows of both ends fails the rank test and its solve misses the
    # least-squares fit by far, so the exact-fit rule refits such a cluster
    # on its rows.  Every cluster of every split then fits as lstsq does,
    # and the descent, which raised DescentError here while it trusted the
    # Gram, keeps its objective exact
    data = _scaled_rows(16)
    X, y = data.regressors, data.outputs
    labels = np.array(list(itertools.product((0, 1), repeat=data.N)))
    member = (labels[:, None, :] == np.arange(2)[:, None]).astype(float)
    table = moment_table(data)
    theta, full = fit_members(table, member, 2, data)
    gram = fit_members(table, member, 2)[0]
    gram_excess = 0.0
    for b, s in itertools.product(range(len(labels)), (0, 1)):
        own = labels[b] == s
        if not own.any():
            continue
        ref = np.linalg.lstsq(X[own], y[own], rcond=None)[0]
        sse = [float(np.sum((y[own] - X[own] @ t) ** 2)) for t in (ref, theta[b, s], gram[b, s])]
        assert sse[1] <= sse[0] + 1e-12, (labels[b], s)
        gram_excess = max(gram_excess, sse[2] - sse[0])
    assert not full.all() and gram_excess > 1.0
    report = bcd_solve(data, SolverConfig(S=2))
    assert report.objective == objective_integer(data, report.model, report.assignment)


def _nodes_unpruned(N, S):
    """Prefixes and strings the pass builds when nothing is dropped."""
    lengths = range(N - oracle._STEP, 1, -oracle._STEP) if S > 1 else ()
    return sum(_stirling_sum(length, S) for length in (*lengths, N))


@pytest.mark.parametrize("S, N", [(1, 6), (2, 2), (2, 5), (2, 12), (3, 3), (3, 8)])
def test_node_budget_on_zero_outputs(S, N):
    # every string fits exactly, so nothing is dropped: the pass builds every
    # prefix and string, fewer than the S^N the old guard counted
    rng = np.random.default_rng(N)
    data = Dataset(rng.uniform(-3, 3, size=(N, 2)), np.zeros(N))
    nodes = _nodes_unpruned(N, S)
    assert nodes <= S**N
    _, classes = oracle_global(data, S, limit=S**N)
    assert len(classes) == _stirling_sum(N, S)
    assert len(oracle_global(data, S, limit=nodes)[1]) == len(classes)
    with pytest.raises(EnumerationLimitError):
        oracle_global(data, S, limit=nodes - 1)


def test_chunk_size_does_not_change_blocked_results(monkeypatch):
    # blocks of 2 samples, so every prefix past the second sample and every
    # string sums more than one block, in chunks of every fill
    monkeypatch.setattr("slsid.model._SUM_BLOCK", 10)
    rng = np.random.default_rng(3)
    noisy = Dataset(rng.uniform(-3, 3, size=(8, 2)), rng.normal(0, 1.0, size=8))
    zero = Dataset(rng.uniform(-3, 3, size=(7, 2)), np.zeros(7))
    monkeypatch.setattr(oracle, "_OPTIMUM_TOL", 0.5)
    default = oracle_global(noisy, 2), oracle_global(zero, 3)
    monkeypatch.setattr(oracle, "_CHUNK", 3)
    small = oracle_global(noisy, 2), oracle_global(zero, 3)
    for a, b in zip(default, small):
        _same_classes(a, b)
    assert len(default[1][1]) > 1 and len(default[0][1]) > 1


def _restricted_growth(length, S):
    """Every restricted-growth string of ``length`` 0-based labels below S,
    in ascending order."""
    strings = [()]
    for _ in range(length):
        strings = [s + (k,) for s in strings for k in range(min(S, max(s, default=-1) + 2))]
    return strings


def _extend_by_filter(parents, width, S):
    """Every code of ``width`` labels below min(S, length) after each
    parent, kept when each label is at most one above the largest before
    it: the reference."""
    start = parents.shape[1]
    rows = [
        (*parent, *code)
        for parent in parents.tolist()
        for code in itertools.product(range(min(S, start + width)), repeat=width)
        if all(
            label <= max((*parent, *code)[:i]) + 1 for i, label in enumerate(code, start)
        )
    ]
    return np.array(rows, dtype=parents.dtype).reshape(-1, start + width)


@pytest.mark.parametrize("S", [1, 2, 3, 4])
def test_extend_matches_a_filter_of_every_code(monkeypatch, S):
    # parents of length 1..6, below S and above it
    monkeypatch.setattr(oracle, "_CHUNK", 5)
    dtype = np.min_scalar_type(S)
    for length in range(1, 7):
        parents = np.array(_restricted_growth(length, S), dtype=dtype)
        for width in range(1, 4):
            chunks = list(oracle._extend(parents, width, S))
            # every chunk but the last is full of valid children
            assert [len(c) for c in chunks[:-1]] == [5] * (len(chunks) - 1)
            got = np.concatenate(chunks)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, _extend_by_filter(parents, width, S))


def _raises_like_the_descent(data, S):
    with pytest.raises(ValueError) as descent:
        bcd_solve(data, SolverConfig(S=S))
    start = time.perf_counter()
    with pytest.raises(ValueError) as exact:
        oracle_global(data, S)
    assert time.perf_counter() - start < 0.05
    N = len(data.outputs)
    assert str(exact.value) == str(descent.value) == f"need at least S={S} samples, got N={N}"


def test_more_subsystems_than_samples():
    # S <= N is the descent's rule too: the same message, raised before the
    # pass builds anything
    rng = np.random.default_rng(22)
    _raises_like_the_descent(Dataset(rng.uniform(-3, 3, size=(5, 2)), np.zeros(5)), 6)


def test_a_million_subsystems_on_five_rows():
    # the check comes first, so S = 10**6 on five rows costs no more than
    # S = 6: no cluster, Gram or class is built for it
    rng = np.random.default_rng(22)
    _raises_like_the_descent(Dataset(rng.uniform(-3, 3, size=(5, 2)), np.zeros(5)), 10**6)


def test_one_subsystem_on_many_rows():
    # with one cluster the pass starts from its one string and builds no
    # child; growing it a label at a time from the root, 50,000 numpy
    # steps, took about 0.6 s on one Xeon core, and this call 4 ms
    rng = np.random.default_rng(24)
    data = Dataset(rng.uniform(-3, 3, size=(50_000, 2)), rng.normal(size=50_000))
    # a first call pays numpy's lazy set-up outside the timing
    oracle_global(Dataset(data.regressors[:4], data.outputs[:4]), 1)
    start = time.perf_counter()
    best, classes = oracle_global(data, 1)
    assert time.perf_counter() - start < 0.25
    want = np.linalg.lstsq(data.regressors, data.outputs, rcond=None)[1][0]
    assert best == pytest.approx(want, rel=1e-9, abs=0)
    assert len(classes) == 1 and classes[0].labels == (1,) * 50_000


@pytest.mark.parametrize("zero, tol", [(True, 1e-9), (False, 0.5)])
def test_classes_are_a_sequence(monkeypatch, zero, tol):
    # three-string chunks spread the classes over many chunks; on noisy
    # outputs with a wide tolerance some chunks keep no string
    rng = np.random.default_rng(5)
    X = rng.uniform(-3, 3, size=(8, 2))
    data = Dataset(X, np.zeros(8) if zero else rng.normal(0, 1.0, size=8))
    monkeypatch.setattr(oracle, "_OPTIMUM_TOL", tol)
    monkeypatch.setattr(oracle, "_CHUNK", 3)
    best, classes = oracle_global(data, 2)
    listed = list(classes)
    count = len(listed)
    assert len(classes) == count > 3
    assert isinstance(classes, Sequence)
    # canonical order: the label strings ascend
    assert [c.labels for c in listed] == sorted(c.labels for c in listed)
    for i in range(count):
        picked = [classes[i], classes[np.int64(i)], classes[i - count]]
        _same_classes((best, picked), (best, [listed[i]] * 3))
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            classes[index]
    for part in (slice(None), slice(2, -1, 3), slice(None, None, -2), slice(count, None)):
        _same_classes((best, classes[part]), (best, listed[part]))
    assert repr(classes) == repr(listed)
    assert _exact_repr((best, classes)) == _exact_repr((best, listed))
    # a record read by index is the iterated one, down to the Python types
    assert repr([classes[i].to_dict() for i in range(count)]) == repr(
        [c.to_dict() for c in classes]
    )


def test_classes_hold_little_memory():
    # all-zero outputs: every one of the 2^15 strings is optimal.  Each
    # class holds its labels, fits, objective and flag as array rows,
    # N + 8*S*n + 9 = 57 bytes, about 1.9 MB in all; one SolutionClass per
    # string held about 15 MB
    rng = np.random.default_rng(16)
    data = Dataset(rng.uniform(-3, 3, size=(16, 2)), np.zeros(16))
    oracle_global(data, 2)
    tracemalloc.start()
    try:
        _, classes = oracle_global(data, 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 2**15
    assert held < 4e6


def _planted(seed, S, N):
    """Noise-free outputs of S planted n=2 systems, clusters as equal as
    possible; the labels, the model and the dataset."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.resize(np.arange(1, S + 1), N))
    model = SLModel(rng.uniform(-5, 5, size=(S, 2)))
    X = rng.uniform(-5, 5, size=(N, 2))
    return labels, model, Dataset(X, np.einsum("ij,ij->i", X, model.params[labels - 1]))


def test_planted_labels_beyond_the_old_guard():
    # 2^60 strings: far above the default budget.  The planted split fits
    # exactly, so the guess pass keeps few prefixes per length: a thousand
    # nodes suffice
    S, N = 2, 60
    labels, model, data = _planted(60, S, N)
    assert S**N > oracle.DEFAULT_ENUM_LIMIT
    optimum, classes = oracle_global(data, S, limit=1000)
    assert optimum <= 1e-12
    assert [c.labels for c in classes] == [canonical_labels(labels)]
    assert unique_optimum(classes)
    assert same_param_set(classes[0].params, model.params)


@pytest.mark.parametrize(
    "S, N, limit",
    [(2, 14, oracle.DEFAULT_ENUM_LIMIT), (3, 9, oracle.DEFAULT_ENUM_LIMIT), (2, 60, 1000)],
)
def test_exact_fit_needs_no_descent(monkeypatch, S, N, limit):
    # on noise-free data the guess pass keeps the planted string within its
    # bound, so its result is final and the descent never runs
    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(oracle, "bcd_solve", no_descent)
    labels, _, data = _planted(N, S, N)
    optimum, classes = oracle_global(data, S, limit=limit)
    assert optimum <= 1e-12
    assert [c.labels for c in classes] == [canonical_labels(labels)]


def test_pure_noise_runs_the_descent_once(monkeypatch):
    # the guess pass keeps no string, so the descent sets U for the second
    # pass, once
    rng = np.random.default_rng(10)
    data = Dataset(rng.uniform(-3, 3, size=(10, 2)), rng.normal(size=10))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return bcd_solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "bcd_solve", counting)
    oracle_global(data, 2)
    assert len(calls) == 1


def test_node_budget_counts_every_pass(monkeypatch):
    # noisy outputs: the guess pass builds its head and keeps no string, and
    # the second pass runs with the descent's U; the budget holds the nodes
    # of both passes and not one fewer
    rng = np.random.default_rng(12)
    data = Dataset(rng.uniform(-3, 3, size=(12, 2)), rng.normal(size=12))
    real = oracle._extend
    sizes, roots = [], []

    def counting(parents, width, S):
        roots.append(parents.shape[1] == 1)
        for labels in real(parents, width, S):
            sizes.append(len(labels))
            yield labels

    monkeypatch.setattr(oracle, "_extend", counting)
    want = oracle_global(data, 2)
    nodes = sum(sizes)
    assert sum(roots) == 2
    monkeypatch.setattr(oracle, "_extend", real)
    _same_classes(oracle_global(data, 2, limit=nodes), want)
    with pytest.raises(EnumerationLimitError):
        oracle_global(data, 2, limit=nodes - 1)


def test_incumbent_prunes_pure_noise(monkeypatch):
    # pure noise at S = 3, N = 16 (seed 7): the second pass lowers its U to
    # each better full string it scores; with U held at the descent's
    # objective it built 366,872 nodes
    rng = np.random.default_rng(7)
    data = Dataset(rng.uniform(-3, 3, size=(16, 2)), rng.normal(size=16))
    real = oracle._extend
    sizes = []

    def counting(parents, width, S):
        for labels in real(parents, width, S):
            sizes.append(len(labels))
            yield labels

    monkeypatch.setattr(oracle, "_extend", counting)
    oracle_global(data, 3)
    assert sum(sizes) < 200_000


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_certified_implies_oracle_unique_at_three_subsystems(seed):
    # cluster sizes at or one above the certificate's stage minima
    # (S-s+1)(n-1)+1, so N <= 12; rows generic or small integers
    rng = np.random.default_rng(seed)
    S, n = 3, int(rng.integers(1, 3))
    sizes = [(S - s) * (n - 1) + 1 + int(rng.integers(0, 2)) for s in range(S)]
    labels = rng.permutation(np.repeat(np.arange(1, S + 1), rng.permutation(sizes)))
    N = labels.size
    if rng.random() < 0.3:
        X = rng.integers(-2, 3, size=(N, n)).astype(float)
    else:
        X = rng.uniform(-5, 5, size=(N, n))
    model = SLModel(rng.uniform(-5, 5, size=(S, n)))
    data = simulate(model, X, Assignment(labels))
    if not pe_report(data, model).certified:
        return
    _, classes = oracle_global(data, S)
    assert unique_optimum(classes), f"certified but {len(classes)} classes"
    assert classes[0].labels == canonical_labels(labels)
    assert same_param_set(classes[0].params, model.params)
