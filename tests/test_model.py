import ast
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    Assignment,
    Dataset,
    NoiseSpec,
    OrderSelectConfig,
    SLModel,
    SolverConfig,
    bcd_solve,
    generate_random_scenario,
    objective_integer,
    oracle_global,
    select_order,
    simulate,
)
from slsid import fixtures, model, partitions, pe

from claims import one_hot, relaxed_objective


class TestTypes:
    def test_dataset_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))

    @pytest.mark.parametrize("where", ["output", "regressor"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite(self, where, bad):
        X, y = np.ones((5, 2)), np.ones(5)
        if where == "output":
            y[3] = bad
        else:
            X[3, 1] = bad
        X[4, 0] = np.nan  # a later bad row: the first one is named
        with pytest.raises(ValueError, match="sample 4 "):
            Dataset(X, y)

    @pytest.mark.parametrize("where", ["outputs", "regressors"])
    def test_dataset_rejects_squares_that_overflow(self, where):
        # every value is finite, but its square is not: outputs x 1e200 used
        # to give the oracle an infinite optimum with every string optimal
        rng = np.random.default_rng(3)
        X, y = rng.uniform(-3, 3, size=(8, 2)), rng.normal(size=8)
        if where == "outputs":
            y *= 1e200
        else:
            X *= 1e160
        with pytest.raises(ValueError, match=f"sum of squares of the {where} overflows"):
            Dataset(X, y)
        # the largest squares that still sum to a finite value pass
        big = np.sqrt(np.finfo(float).max / 20)
        Dataset(np.full((8, 2), big), np.full(8, big))

    def test_dataset_rejects_empty_regressors(self):
        with pytest.raises(ValueError, match=r"regressors must be nonempty, got shape \(0, 2\)"):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("labels", [[1, 2, 1], np.array([1, 2, 1])])
    def test_labels_must_be_an_assignment(self, labels):
        # a bare list or array used to fail later, on its missing validate
        with pytest.raises(TypeError, match="truth must be an Assignment or None, got"):
            Dataset(np.ones((3, 2)), np.ones(3), truth=labels)
        with pytest.raises(TypeError, match="switching must be an Assignment, got"):
            simulate(SLModel(np.ones((2, 2))), np.ones((3, 2)), labels)

    def test_assignment_labels_one_based(self):
        with pytest.raises(ValueError):
            Assignment(np.array([0, 1]))

    @pytest.mark.parametrize("labels", [np.ones((2, 2), int), np.array([], int), []])
    def test_assignment_labels_nonempty_and_1d(self, labels):
        with pytest.raises(ValueError, match="labels must be a nonempty 1-D integer array"):
            Assignment(labels)

    def test_assignment_equals_only_an_assignment(self):
        a = Assignment([1, 2])
        assert a == Assignment(np.array([1, 2])) and a != Assignment([2, 1])
        # __eq__ returns NotImplemented, so Python falls back to identity
        assert a.__eq__(3) is NotImplemented
        assert not (a == 3) and a != 3

    @pytest.mark.parametrize("bad", [1.5, 2.7, np.nan, np.inf])
    def test_assignment_rejects_fractional_labels(self, bad):
        # a fractional label used to be truncated silently
        with pytest.raises(ValueError, match="whole numbers"):
            Assignment([1.0, bad])
        a = Assignment([1.0, 2.0])
        assert a.labels.dtype.kind == "i" and a.labels.tolist() == [1, 2]

    def test_assignment_validate_is_the_one_label_check(self):
        a = Assignment([1, 3, 2])
        a.validate(3, 3)
        with pytest.raises(ValueError, match="3 labels for 4 samples"):
            a.validate(4, 3)
        with pytest.raises(ValueError, match="above S=2"):
            a.validate(3, 2)
        model = SLModel(np.ones((2, 2)))
        data = Dataset(np.ones((3, 2)), np.ones(3))
        calls = [
            lambda: simulate(model, np.ones((3, 2)), a),
            lambda: objective_integer(data, model, a),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="above S=2"):
                call()

    def test_model_invariants(self):
        m = SLModel(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert m.S == 2 and m.n == 2
        with pytest.raises(ValueError):
            SLModel(np.array([1.0, 2.0]))

    def test_noise_spec_consistency(self):
        with pytest.raises(ValueError):
            NoiseSpec("none", 0.5)
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 0.0)
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_model_rejects_non_finite_params(self, bad):
        params = np.ones((3, 2))
        params[1, 0] = bad
        params[2, 1] = np.nan  # a later bad row: the first one is named
        with pytest.raises(ValueError, match="params row 2 "):
            SLModel(params)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_noise_spec_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseSpec("gaussian", sigma)


class TestSimulate:
    def test_example_two_outputs(self):
        _, data = fixtures.example_two()
        np.testing.assert_array_equal(
            data.outputs, [1.0, 2.0, 3.0, 4.0, 2.0, 0.0, -11.0, -8.0]
        )
        assert data.truth == Assignment(fixtures.EXAMPLE2_LABELS)

    def test_example_one_outputs(self):
        _, data = fixtures.example_one()
        np.testing.assert_array_equal(data.outputs, [1.0, 1.0, 0.0, -10.0])

    def test_zero_model_gives_zero_outputs(self):
        model = SLModel(np.zeros((1, 3)))
        data = simulate(model, np.arange(12.0).reshape(4, 3), Assignment(np.ones(4, int)))
        np.testing.assert_array_equal(data.outputs, np.zeros(4))

    def test_label_out_of_range(self):
        model = SLModel(np.ones((2, 2)))
        with pytest.raises(ValueError):
            simulate(model, np.ones((3, 2)), Assignment(np.array([1, 2, 3])))

    def test_dimension_mismatch(self):
        model = SLModel(np.ones((2, 2)))
        with pytest.raises(ValueError):
            simulate(model, np.ones((3, 4)), Assignment(np.array([1, 2, 1])))

    def test_noise_deterministic_given_seed(self):
        model = SLModel(np.ones((1, 2)))
        X = np.ones((5, 2))
        a = Assignment(np.ones(5, int))
        d1 = simulate(model, X, a, NoiseSpec("gaussian", 0.3, seed=9))
        d2 = simulate(model, X, a, NoiseSpec("gaussian", 0.3, seed=9))
        np.testing.assert_array_equal(d1.outputs, d2.outputs)
        assert not np.array_equal(
            d1.outputs, simulate(model, X, a, NoiseSpec("gaussian", 0.3, seed=10)).outputs
        )


class TestGenerateRandomScenario:
    def test_shapes_and_label_coverage(self):
        model, data = generate_random_scenario(
            2, 2, 500, (-5, 5), NoiseSpec("gaussian", 0.1), seed=7
        )
        assert data.N == 500 and data.n == 2 and model.S == 2
        assert set(np.unique(data.truth.labels)) == {1, 2}
        assert np.abs(model.params).max() <= 5.0

    def test_single_subsystem_labels(self):
        _, data = generate_random_scenario(3, 1, 20, seed=0)
        assert set(np.unique(data.truth.labels)) == {1}

    def test_same_seed_bitwise_identical(self):
        a = generate_random_scenario(2, 3, 50, (-5, 5), NoiseSpec("gaussian", 0.2), 123)
        b = generate_random_scenario(2, 3, 50, (-5, 5), NoiseSpec("gaussian", 0.2), 123)
        np.testing.assert_array_equal(a[1].regressors, b[1].regressors)
        np.testing.assert_array_equal(a[1].outputs, b[1].outputs)
        np.testing.assert_array_equal(a[0].params, b[0].params)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            generate_random_scenario(2, 2, 10, (3.0, 3.0))

    @pytest.mark.parametrize(
        "bad",
        [(-np.inf, 5.0), (-5.0, np.inf), (np.nan, 5.0), (-1e308, 1e308)],
    )
    def test_range_of_infinite_width_rejected(self, bad):
        with pytest.raises(ValueError, match=r"param_range .* finite width"):
            generate_random_scenario(2, 2, 5, bad)


class TestObjectives:
    def test_truth_fits_exactly(self):
        model, data = fixtures.example_two()
        assert objective_integer(data, model, data.truth) == 0.0

    def test_noise_free_truth_fits_exactly_on_float_data(self):
        model, data = generate_random_scenario(3, 2, 200, (-5, 5), NoiseSpec(), 31)
        assert objective_integer(data, model, data.truth) == 0.0

    def test_single_sample(self):
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        model = SLModel(np.array([[0.0]]))
        assert objective_integer(data, model, Assignment(np.array([1]))) == 1.0

    def test_relaxed_half_half_penalty(self):
        # one sample fit exactly by both subsystems: only the penalty remains
        data = Dataset(np.array([[1.0, 0.0]]), np.array([2.0]))
        model = SLModel(np.array([[2.0, 0.0], [2.0, 5.0]]))
        w = np.array([[0.5], [0.5]])
        assert relaxed_objective(data, model, w) == pytest.approx(0.5, abs=1e-15)


def _random_instance(rng, N, S, n, noisy=True):
    model = SLModel(rng.uniform(-4, 4, size=(S, n)))
    X = rng.uniform(-4, 4, size=(N, n))
    y = np.einsum(
        "ij,ij->i", X, model.params[rng.integers(0, S, size=N)]
    ) + (rng.normal(0, 0.5, size=N) if noisy else 0.0)
    return model, Dataset(X, y)


def _binary_minimum(data, model):
    best = np.inf
    for labels in itertools.product(range(1, model.S + 1), repeat=data.N):
        best = min(best, objective_integer(data, model, Assignment(np.array(labels))))
    return best


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_relaxed_equals_integer_at_binary_points(seed):
    rng = np.random.default_rng(seed)
    S, n, N = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
    model, data = _random_instance(rng, N, S, n)
    labels = Assignment(rng.integers(1, S + 1, size=N))
    w = one_hot(labels.labels, S)
    assert relaxed_objective(data, model, w) == objective_integer(data, model, labels)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_relaxation_never_beats_binary_minimum(seed):
    # the relaxed problem's inner minimum over memberships equals the binary
    # minimum; any feasible fractional membership scores at least as high
    rng = np.random.default_rng(seed)
    S, n, N = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 7))
    model, data = _random_instance(rng, N, S, n)
    floor = _binary_minimum(data, model)
    for _ in range(40):
        raw = rng.uniform(0, 1, size=(S, N))
        w = raw / raw.sum(axis=0, keepdims=True)
        assert relaxed_objective(data, model, w) >= floor - 1e-9


def test_relaxed_and_integer_minima_coincide_small_grid():
    # grid + enumeration check on a fixed small instance
    rng = np.random.default_rng(3)
    model, data = _random_instance(rng, 5, 2, 2, noisy=True)
    floor = _binary_minimum(data, model)
    best_relaxed = np.inf
    for _ in range(2000):
        raw = rng.uniform(0, 1, size=(2, 5))
        w = raw / raw.sum(axis=0, keepdims=True)
        best_relaxed = min(best_relaxed, relaxed_objective(data, model, w))
    for labels in itertools.product((1, 2), repeat=5):
        w = one_hot(np.array(labels), 2)
        best_relaxed = min(best_relaxed, relaxed_objective(data, model, w))
    assert best_relaxed == pytest.approx(floor, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: NoiseSpec("laplace", 0.1), "unknown noise kind 'laplace'"),
        (lambda: Dataset(np.ones((3, 2)), np.ones((3, 1))), "outputs must be 1-D"),
        (
            lambda: Dataset(np.ones((3, 2)), np.ones(3), Assignment(np.ones(2, int))),
            "assignment has 2 labels for 3 samples",
        ),
        (lambda: generate_random_scenario(0, 1, 5), "n must be >= 1, got 0"),
        (lambda: generate_random_scenario(1, 0, 5), "S must be >= 1, got 0"),
        (lambda: generate_random_scenario(1, 1, 0), "N must be >= 1, got 0"),
    ],
)
def test_bad_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "args, message",
    [
        ((2.5, 2, 10), "n must be an integer, got 2.5"),
        ((2, 2.0, 10), "S must be an integer, got 2.0"),
        ((2, 2, "10"), "N must be an integer, got '10'"),
    ],
)
def test_non_integer_scenario_counts_rejected(args, message):
    with pytest.raises(TypeError, match=message):
        generate_random_scenario(*args)
    # numpy integers are counts
    _, data = generate_random_scenario(np.int64(2), np.int32(2), np.uint8(10))
    assert data.regressors.shape == (10, 2)


@pytest.mark.parametrize(
    "seed, error, message",
    [(1.5, TypeError, "seed must be an integer, got 1.5"),
     (-1, ValueError, "seed must be None or >= 0, got -1")],
)
def test_bad_scenario_seed_rejected(seed, error, message):
    with pytest.raises(error, match=message):
        generate_random_scenario(2, 2, 10, seed=seed)
    with pytest.raises(error, match=message):
        NoiseSpec("gaussian", 0.1, seed=seed)
    # a numpy integer is a seed
    np.testing.assert_array_equal(
        generate_random_scenario(2, 2, 10, seed=np.int64(3))[1].outputs,
        generate_random_scenario(2, 2, 10, seed=3)[1].outputs,
    )


def _gram_solve_by_sorting(sums, n):
    """``gram_solve`` as first written, with a max and a sort over each
    Gram's eigenvalues: the reference."""
    tri = n * (n + 1) // 2
    grams = np.zeros(sums.shape[:-1] + (n, n))
    grams[(...,) + np.triu_indices(n)] = sums[..., :tri]
    w, V = np.linalg.eigh(grams, UPLO="U")
    svals = np.abs(w)
    keep = svals > n * np.finfo(float).eps * svals.max(axis=-1, keepdims=True)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    coef = inv * np.einsum("...ji,...j->...i", V, sums[..., tri:])
    theta = np.einsum("...ij,...j->...i", V, coef)
    return theta, -np.sort(-svals, axis=-1)


def _moment_sums(rows, outputs):
    """Summed moment-table columns of a stack of row sets."""
    n = rows.shape[-1]
    grams = np.einsum("bki,bkj->bij", rows, rows)
    return np.concatenate(
        [grams[(...,) + np.triu_indices(n)], np.einsum("bki,bk->bi", rows, outputs)], axis=-1
    )


def test_solve2_matches_lapack_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    normal = rng.normal(size=(256, 4, 2))
    axis = rng.normal(size=(256, 4, 2))
    axis[:, :2, 0] = axis[:, 2:, 1] = 0.0
    row_sets = [
        normal,
        rng.normal(size=(256, 1, 2)),
        rng.normal(size=(256, 1, 2)) * rng.normal(size=(256, 3, 1)),
        axis,
        rng.integers(-3, 4, size=(256, 4, 2)).astype(float),
        np.zeros((4, 4, 2)),
    ]
    row_sets += [normal[:32] * 10.0**k for k in range(-8, 9)]
    # Gram entries near and beyond both ends of LAPACK's unscaled range
    row_sets += [normal[:64] * 10.0**k for k in (-61, -65, -75, 73, 75, 80)]
    sums = []
    for rows in row_sets:
        outputs = rng.normal(size=rows.shape[:2])
        # zero outputs, as on the oracle's all-zero data, give signed zeros
        outputs[::2] = 0.0
        sums.append(_moment_sums(rows, outputs))
    # general symmetric matrices, upper triangle, reach dlaev2's sign
    # branches and its ties
    sums.append(rng.integers(-3, 4, size=(512, 5)).astype(float))
    sums = np.concatenate(sums)
    # the closed form's domain: a, c > 0, |b| > 1e-15 (a + c), the largest
    # entry unscaled by LAPACK, and |rt2| <= rt1 for dlaev2's eigenvalues
    a, b, c = sums[:, 0], sums[:, 1], sums[:, 2]
    anorm = np.abs(sums[:, :3]).max(axis=1)
    scaled = (anorm > 2.0**485) | (anorm < 2.0**-405) & (anorm > 0)
    with np.errstate(all="ignore"):
        hi = np.maximum(np.abs(a - c), np.abs(b + b))
        rt = hi * np.sqrt(1.0 + (np.minimum(np.abs(a - c), np.abs(b + b)) / hi) ** 2)
        rt1 = 0.5 * (a + c + rt)
        rt2 = (np.maximum(a, c) / rt1) * np.minimum(a, c) - (b / rt1) * b
        inside = (a > 0) & (c > 0) & (np.abs(b) > 1e-15 * (a + c)) & ~scaled
        inside &= np.abs(rt2) <= rt1
    zero = ~sums[:, :3].any(axis=1)
    assert 0 < scaled.sum() < len(sums) and zero.any()
    assert (~inside & ~zero & ~scaled).any()
    want = _gram_solve_by_sorting(sums, 2)

    eigh, sent = np.linalg.eigh, []

    def recording(a, UPLO="L"):
        sent.append(len(a))
        return eigh(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    got = model._solve2(sums)
    # only the Grams outside the domain, zero Grams aside, reach eigh
    assert sent == [(~inside & ~zero).sum()]
    for a, b in zip(got, want):
        assert a.shape == b.shape
        # as integers, so signed zeros must match too
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


# the kinds of n = 2 Gram a drawn stack mixes: of 1-4 normal rows, of one
# row, of collinear rows, of near-orthogonal rows (b from 2^-70 to 2^-40
# times the diagonal, across dsteqr's split tests and the closed form's
# 1e-15 cut), zero, and integer symmetric matrices (upper triangle and
# moments in -3..3), which reach dlaev2's sign branches and ties
_GRAM_KINDS = ("rows", "single", "collinear", "orthogonal", "zero", "integer")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3072),
    st.lists(st.sampled_from(_GRAM_KINDS), min_size=1, max_size=5),
    st.integers(-600, 450),
    st.integers(-600, 450),
    st.booleans(),
)
def test_solve2_is_solve_eigh_bit_for_bit(seed, size, kinds, e1, e2, zero_outputs):
    rng = np.random.default_rng(seed)
    pick = np.asarray(kinds)[rng.integers(len(kinds), size=size)]
    # each row scaled by 2^e, e between the two drawn exponents: from Grams
    # that underflow to zero to Grams near 2^900, widely scaled within one
    rows = rng.normal(size=(size, 4, 2))
    rows *= np.ldexp(1.0, rng.integers(min(e1, e2), max(e1, e2) + 1, size=(size, 4, 1)))
    rows[rng.random(size) < 0.5, 2:] = 0.0
    rows[pick == "single", 1:] = 0.0
    collinear = pick == "collinear"
    rows[collinear] = rows[collinear, :1] * rng.normal(size=(collinear.sum(), 4, 1))
    orthogonal = pick == "orthogonal"
    count = orthogonal.sum()
    tilt = np.ldexp(rng.normal(size=(count, 2)), rng.integers(-70, -39, size=(count, 1)))
    rows[orthogonal] = 0.0
    rows[orthogonal, 0, 0] = rows[orthogonal, 1, 1] = 1.0
    rows[orthogonal, 0, 1], rows[orthogonal, 1, 0] = tilt.T
    rows[pick == "zero"] = 0.0
    outputs = np.zeros((size, 4)) if zero_outputs else rng.normal(size=(size, 4))
    sums = _moment_sums(rows, outputs)
    integer = pick == "integer"
    sums[integer] = rng.integers(-3, 4, size=(integer.sum(), 5))
    # Grams near underflow have subnormal eigenvalues, whose inverses
    # overflow on the eigh path
    with np.errstate(all="ignore"):
        want = model._solve_eigh(sums, 2)
        got = model._solve2(sums)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        # as integers, so signed zeros must match too
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_solve2_keeps_few_stack_sized_temporaries():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(2048, 3, 2))
    # laid out as the oracle passes its sums: each column contiguous
    sums = np.ascontiguousarray(_moment_sums(rows, np.zeros((2048, 3))).T).T
    # numpy's and LAPACK's one-time set-up, outside the traced call
    model._solve2(sums)
    peaks = []

    def traced():
        tracemalloc.start()
        try:
            model._solve2(sums)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    # in a new thread, so the traced call allocates its own workspace too
    worker = threading.Thread(target=traced)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert peaks[0] < 24 * sums[:, 0].nbytes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gram_solve_matches_the_sorting_formula(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    shape = (200, n + 2, n)
    normal = rng.normal(size=shape)
    # rank-deficient: fewer nonzero rows than n, or rows along one direction
    few = rng.normal(size=shape)
    few[:, max(n - 1, 1) :] = 0.0
    row_sets = [
        normal,
        few,
        rng.normal(size=(200, 1, n)) * rng.normal(size=(200, n + 2, 1)),
        rng.integers(-2, 3, size=shape).astype(float),
        np.zeros(shape),
    ]
    # rows scaled by 10^-8 and 10^8, then Gram entries beyond both ends of
    # LAPACK's unscaled range
    row_sets += [normal[:40] * 10.0**k for k in (-8, 8, -65, 75)]
    rows = np.concatenate(row_sets)
    sums = _moment_sums(rows, rng.normal(size=rows.shape[:2]))
    w = np.linalg.eigh(np.einsum("bki,bkj->bij", rows, rows), UPLO="U")[0]
    if n > 1:
        # some smallest eigenvalues round below zero, and some such rows
        # need the exact re-sort
        assert (w[:, 0] < 0).any()
    if n > 2:
        assert (np.diff(np.abs(w)[:, ::-1], axis=-1) > 0).any()
    want = _gram_solve_by_sorting(sums, n)
    # at n = 2, both decompositions: the closed-form port and eigh
    for cutoff in (0, 10**9) if n == 2 else (model._EIGH2_MIN,):
        monkeypatch.setattr(model, "_EIGH2_MIN", cutoff)
        got = model.gram_solve(sums, n)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            # as integers, so signed zeros must match too
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _solve_eigh_by_store(sums, n):
    """``model._solve_eigh`` with its Grams built as zeros plus a store of
    the upper triangle: the reference for the one-gather build."""
    tri = n * (n + 1) // 2
    grams = np.zeros(sums.shape[:-1] + (n, n))
    grams[(...,) + np.triu_indices(n)] = sums[..., :tri]
    w, V = np.linalg.eigh(grams, UPLO="U")
    svals = np.abs(w)
    top = np.maximum(svals[..., :1], svals[..., -1:])
    keep = svals > n * np.finfo(float).eps * top
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    coef = inv * np.einsum("...ji,...j->...i", V, sums[..., tri:])
    theta = np.einsum("...ij,...j->...i", V, coef)
    svals = svals[..., ::-1].copy()
    low = w[..., 0] < 0
    if low.any():
        svals[low] = -np.sort(-svals[low], axis=-1)
    return theta, svals


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_solve_eigh_gathers_the_gram_bit_for_bit(n):
    # eigh(UPLO="U") reads the upper triangle alone, so a Gram gathered
    # whole gives the bits of one whose lower triangle is zero
    rng = np.random.default_rng(70 + n)
    normal = rng.normal(size=(60, n + 2, n))
    few = rng.normal(size=(60, n + 2, n))
    few[:, max(n - 1, 1) :] = 0.0
    row_sets = [
        normal,
        np.zeros((8, n + 2, n)),
        few,
        rng.normal(size=(60, 1, n)) * rng.normal(size=(60, n + 2, 1)),
    ]
    # Grams of about 10^-80 and 10^80, then beyond both ends of LAPACK's
    # unscaled range
    row_sets += [normal[:20] * 10.0**k for k in (-40, 40, -65, 75)]
    rows = np.concatenate(row_sets)
    outputs = rng.normal(size=rows.shape[:2])
    outputs[::3] = 0.0
    sums = _moment_sums(rows, outputs)
    assert not sums[60:68].any()
    # a stack as the descent passes it: clusters along a second axis
    sums = sums.reshape(-1, 2, sums.shape[-1])
    got, want = model._solve_eigh(sums, n), _solve_eigh_by_store(sums, n)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        # as integers, so signed zeros must match too
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_results_do_not_depend_on_the_eigh_path(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.uniform(-5.0, 5.0, size=(14, 2))
    planted = SLModel(rng.uniform(-5.0, 5.0, size=(2, 2)))
    oracle_cases = [
        (Dataset(X[:12], np.zeros(12)), 2),
        (simulate(planted, X, Assignment(np.resize([1, 2], 14))), 2),
        (Dataset(X[:9], rng.normal(size=9)), 3),
        # Grams that LAPACK rescales, about 1e-140 and 1e160, which the
        # fused pass hands to eigh
        (Dataset(X[:12] * np.resize([1e-70, 1.0, 1e80], 12)[:, None], rng.normal(size=12)), 2),
    ]
    _, noisy = generate_random_scenario(2, 2, 120, noise=NoiseSpec("gaussian", 0.1), seed=3)
    order_cfg = OrderSelectConfig(S_bar=3, solver=SolverConfig(S=1))
    port, calls = model._solve2, []
    eigh, decomposed = np.linalg.eigh, []

    def counted(sums):
        calls.append(len(sums))
        return port(sums)

    def recording(a, UPLO="L"):
        decomposed.append(len(a))
        return eigh(a, UPLO)

    monkeypatch.setattr(model, "_solve2", counted)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    found = []
    # at 0 every n = 2 stack takes the fused pass, which hands eigh the
    # rescaled Grams of the last oracle case; above every batch none does
    for cutoff in (0, 10**9):
        monkeypatch.setattr(model, "_EIGH2_MIN", cutoff)
        calls.clear()
        decomposed.clear()
        found.append(
            [repr((best, [c.to_dict() for c in classes]))
             for best, classes in (oracle_global(data, S) for data, S in oracle_cases)]
            + [repr(bcd_solve(noisy, SolverConfig(S=2)).to_dict()),
               repr(select_order(noisy, order_cfg).to_dict())]
        )
        assert bool(calls) == (cutoff == 0)
        assert decomposed
    assert found[0] == found[1]


def test_model_is_the_base_layer():
    # model states the rank rule and imports nothing from slsid; the
    # certificates take the rule from it
    names = []
    for node in ast.walk(ast.parse(open(model.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [name for name in names if name.startswith((".", "slsid"))], names
    for module in (partitions, pe):
        assert module.gram_full_rank is model.gram_full_rank
        assert module.GRAM_RTOL is model.GRAM_RTOL
