import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slsid import (
    Assignment,
    Dataset,
    NoiseSpec,
    SLModel,
    SolverConfig,
    bcd_solve,
    generate_random_scenario,
    min_samples_ours,
    objective_integer,
    oracle_global,
    pe_report,
    simulate,
)
from slsid import bcd, fixtures
from slsid.bcd import DescentError, SolverFailure, assign_step
from slsid.model import fit_members, gram_full_rank, gram_solve, moment_table
from slsid.oracle import same_param_set

from claims import is_stationary, one_hot, relaxed_objective

EXAMPLE2_ALT = np.array([[-1.4, 2.8, 4.0], [-2.0, -2.0, 4.0]])


def assert_trace_descends(trace):
    drops = np.diff(trace)
    assert np.all(drops <= 1e-9 * (1.0 + np.abs(trace[:-1])))


def _fit_with_rank(data, labels, clusters):
    """``fit_members`` on the listed clusters' memberships: the fits, each
    cluster's full-rank flag it returns, and whether the cluster is empty."""
    member = (labels == np.asarray(clusters)[:, None]).astype(float)
    theta, full_rank = fit_members(moment_table(data), member, data.n)
    return theta, full_rank, ~member.any(axis=1)


class TestFitClusterParams:
    """The per-cluster least-squares kernel behind the parameter half-step."""

    def test_example_two_second_cluster_exact(self):
        model, data = fixtures.example_two()
        theta, full_rank, empty = _fit_with_rank(data, data.truth.labels, [2])
        np.testing.assert_allclose(theta[0], [-2.0, 4.0, 1.0], atol=1e-9)
        assert full_rank[0] and not empty[0]

    def test_single_sample_minimum_norm(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([2.0]))
        theta, full_rank, empty = _fit_with_rank(data, np.array([1]), [1])
        np.testing.assert_allclose(theta[0], [2.0, 0.0], atol=1e-12)
        assert not full_rank[0] and not empty[0]

    def test_whole_data_single_system(self):
        rng = np.random.default_rng(0)
        model = SLModel(rng.uniform(-2, 2, size=(1, 3)))
        data = simulate(model, rng.uniform(-2, 2, size=(20, 3)), Assignment(np.ones(20, int)))
        theta, full_rank, _ = _fit_with_rank(data, data.truth.labels, [1])
        np.testing.assert_allclose(theta[0], model.params[0], atol=1e-9)
        assert full_rank[0]

    def test_empty_cluster_signalled(self):
        _, data = fixtures.example_one()
        theta, full_rank, empty = _fit_with_rank(data, data.truth.labels, [1, 3, 2])
        np.testing.assert_array_equal(empty, [False, True, False])
        np.testing.assert_array_equal(theta[1], [0.0, 0.0])
        assert not full_rank[1]


def _kernel_cases(rng, n):
    """Rows and labels holding one cluster of each shape the kernel meets.

    1 generic, 2 one row repeated, 3 collinear rows, 4 a single row,
    5 fewer rows than n (none at n = 1), 6 empty.
    """
    v = rng.uniform(-3, 3, size=n)
    blocks = [
        rng.uniform(-3, 3, size=(2 * n + 3, n)),
        np.tile(v, (4, 1)),
        rng.uniform(-2, 2, size=(5, 1)) * rng.uniform(-3, 3, size=n),
        rng.uniform(-3, 3, size=(1, n)),
        rng.uniform(-3, 3, size=(n - 1, n)),
    ]
    labels = np.concatenate([np.full(len(b), s) for s, b in enumerate(blocks, start=1)])
    perm = rng.permutation(labels.size)
    return np.vstack(blocks)[perm], labels[perm]


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_matches_per_cluster_lstsq(n, scale):
    # the Gram-based kernel against lstsq on each cluster's rows: rank and
    # empty flags exact, parameters equal to rounding, looser where a
    # rank-deficient Gram is solved
    rng = np.random.default_rng(100 * n + int(np.log10(scale)))
    for _ in range(5):
        X, labels = _kernel_cases(rng, n)
        data = Dataset(scale * X, scale * rng.normal(0, 1, size=labels.size))
        clusters = [6, 1, 2, 3, 4, 5]
        theta, full_rank, empty = _fit_with_rank(data, labels, clusters)
        for i, s in enumerate(clusters):
            idx = labels == s
            where = f"n={n} scale={scale} cluster {s}"
            assert empty[i] == (not idx.any()), where
            if not idx.any():
                assert not full_rank[i] and not theta[i].any(), where
                continue
            ref, _, _, svals = np.linalg.lstsq(data.regressors[idx], data.outputs[idx], rcond=None)
            assert full_rank[i] == gram_full_rank(svals**2, n), where
            rtol = 1e-10 if full_rank[i] else 1e-7
            np.testing.assert_allclose(
                theta[i], ref, rtol=rtol, atol=rtol * np.abs(ref).max(), err_msg=where
            )
        # the shapes above are what make the test: check they came out
        one = n == 1
        assert full_rank.tolist() == [False, True, one, one, one, False]


def _check_stacked_prefixes(rng, n, lengths, monkeypatch):
    # a 3-D stack of memberships over a prefix of the samples: each slice's
    # sums and fits bitwise, and rank flags, those of the slice passed
    # alone, and each cluster's fit lstsq's on its prefix rows to rounding
    X, labels = _kernel_cases(rng, n)
    data = Dataset(X, rng.normal(0, 1, size=labels.size))
    table = moment_table(data)
    clusters = np.arange(1, 7)[:, None]
    sums = []

    def recording(total, width):
        sums.append(total)
        return gram_solve(total, width)

    monkeypatch.setattr("slsid.model.gram_solve", recording)
    shapes = set()
    for length in lengths(labels.size):
        stack = np.stack(
            [labels[:length] == clusters]
            + [rng.permutation(labels)[:length] == clusters for _ in range(3)]
        ).astype(float)
        sums.clear()
        theta, full = fit_members(table, stack, n)
        for g, member in enumerate(stack):
            alone = fit_members(table, member, n)
            assert sums[1 + g].tobytes() == sums[0][g].tobytes()
            assert theta[g].tobytes() == alone[0].tobytes()
            assert full[g].tolist() == alone[1].tolist()
        full_rank = full[0]
        for i, s in enumerate(clusters[:, 0]):
            idx = labels[:length] == s
            where = f"n={n} length={length} cluster {s}"
            if not idx.any():
                assert not theta[0, i].any() and not full_rank[i], where
                shapes.add("empty")
                continue
            rows, outputs = X[:length][idx], data.outputs[:length][idx]
            ref, _, _, sv = np.linalg.lstsq(rows, outputs, rcond=None)
            assert full_rank[i] == gram_full_rank(sv**2, n), where
            rtol = 1e-10 if full_rank[i] else 1e-7
            np.testing.assert_allclose(
                theta[0, i], ref, rtol=rtol, atol=rtol * np.abs(ref).max(), err_msg=where
            )
            shapes.add("full" if full_rank[i] else "deficient")
    # the prefixes must hold every kind of cluster the kernel meets; at
    # n = 1 only a zero row is deficient, and the cases hold none
    assert shapes == {"empty", "full"} | ({"deficient"} if n > 1 else set())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_and_prefix_memberships(n, monkeypatch):
    rng = np.random.default_rng(40 + n)
    _check_stacked_prefixes(rng, n, lambda size: (1, n + 2, size // 2, size), monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocked_sums_stack_like_one_slice(n, monkeypatch):
    # blocks of 4 samples: prefixes that end inside the first block, at a
    # block edge, past the edge inside a later block, and the whole data
    rows = n * (n + 3) // 2
    monkeypatch.setattr("slsid.model._SUM_BLOCK", 4 * rows)
    rng = np.random.default_rng(50 + n)
    _check_stacked_prefixes(rng, n, lambda size: (3, 4, 8, 10, size), monkeypatch)
    # the sums are the blocks' matmuls added in order
    table = rng.normal(size=(rows, 10))
    member = (rng.integers(0, 3, size=10) == np.arange(3)[:, None]).astype(float)
    sums = []

    def recording(total, width):
        sums.append(total)
        return gram_solve(total, width)

    monkeypatch.setattr("slsid.model.gram_solve", recording)
    fit_members(table, member, n)
    blocks = [table[:, k : k + 4] @ member[:, k : k + 4].T for k in (0, 4, 8)]
    assert sums[0].tobytes() == ((blocks[0] + blocks[1]) + blocks[2]).T.tobytes()


def test_fit_above_the_real_block_keeps_its_objective_exact():
    # 20 table rows times 7000 samples is past the unpatched block, so the
    # descent's sums add two blocks
    from slsid.model import _SUM_BLOCK

    _, data = generate_random_scenario(5, 4, 7000, (-5, 5), NoiseSpec("gaussian", 0.1), 9)
    assert _SUM_BLOCK // moment_table(data).shape[0] < data.N
    report = bcd_solve(data, SolverConfig(S=4, restarts=2, max_iters=3, seed=9))
    assert report.objective == objective_integer(data, report.model, report.assignment)


def test_solve_builds_moments_once_and_calls_no_lstsq(monkeypatch):
    _, data = generate_random_scenario(3, 3, 300, (-5, 5), NoiseSpec("gaussian", 0.1), 6)
    tables, lstsq_calls = [], []
    moment_table, lstsq = bcd.moment_table, np.linalg.lstsq

    def counting_table(*args, **kwargs):
        tables.append(1)
        return moment_table(*args, **kwargs)

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(bcd, "moment_table", counting_table)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    report = bcd_solve(data, SolverConfig(S=3, restarts=6, seed=2))
    assert report.degenerate_restarts < 6
    assert len(tables) == 1
    assert lstsq_calls == []


def test_rising_objective_raises_descent_error(monkeypatch):
    # a parameter half-step that goes wrong on its second call raises the
    # objective at iteration 2 of restart 0
    _, data = generate_random_scenario(2, 2, 100, (-5, 5), NoiseSpec("gaussian", 0.1), 9)
    solve, calls = bcd.fit_members, []

    def broken(*args):
        params, svals = solve(*args)
        calls.append(1)
        return (params + 100.0 if len(calls) == 2 else params), svals

    monkeypatch.setattr(bcd, "fit_members", broken)
    with pytest.raises(DescentError) as info:
        bcd_solve(data, SolverConfig(S=2, restarts=3, seed=4))
    err = info.value
    assert isinstance(err, RuntimeError)
    assert (err.restart, err.iteration) == (0, 2)
    assert err.after > err.before + 1e-9 * (1.0 + err.before)
    assert "restart 0, iteration 2" in str(err)


def test_lowest_failing_restart_of_a_group_is_raised(monkeypatch):
    # restarts 1 and 3 share one group; 3 breaks at iteration 2 and 1 at
    # iteration 3, and a one-at-a-time run would raise restart 1's error
    _, data = generate_random_scenario(2, 2, 100, (-5, 5), NoiseSpec("gaussian", 0.1), 9)
    solve, calls = bcd.fit_members, []

    def broken(*args):
        params, svals = solve(*args)
        calls.append(len(params))
        if len(calls) == 2:
            params[3] += 100.0
        if len(calls) == 3:
            params[1] += 100.0
        return params, svals

    monkeypatch.setattr(bcd, "fit_members", broken)
    with pytest.raises(DescentError) as info:
        bcd_solve(data, SolverConfig(S=2, restarts=5, seed=4))
    # one group of five; only restart 3 left it before iteration 3
    assert calls[:3] == [5, 5, 4]
    assert (info.value.restart, info.value.iteration) == (1, 3)


def test_zero_first_regressor_is_not_an_empty_cluster():
    # the parameter step tests a restart for an empty cluster only when a
    # cluster's largest Gram singular value is not positive; with x_1 = 0
    # every Gram is singular, but a nonempty cluster's largest singular
    # value stays positive
    _, data = generate_random_scenario(2, 2, 200, (-5, 5), NoiseSpec("gaussian", 0.1), 11)
    X = data.regressors.copy()
    X[:, 0] = 0.0
    report = bcd_solve(Dataset(X, data.outputs), SolverConfig(S=2, restarts=4, seed=1))
    assert report.degenerate_restarts == 0


def _reported(report):
    """Everything a report holds; its repr compares floats bit for bit."""
    history = [
        (h.iteration, h.objective, h.params.tobytes(), h.labels.tobytes())
        for h in report.history or ()
    ]
    return report.to_dict(), history


def _outcome(data, cfg):
    """Everything a call reports, or the message it fails with."""
    try:
        report = bcd_solve(data, cfg)
    except SolverFailure as err:
        return str(err)
    return _reported(report)


def _check_group_sizes(monkeypatch):
    noisy = generate_random_scenario(3, 3, 400, (-5, 5), NoiseSpec("gaussian", 0.1), 3)[1]
    cases = [(noisy, SolverConfig(S=3, restarts=7, seed=5, keep_history=True))]
    # noise-free data with a surplus cluster: restarts degenerate, and some
    # calls lose every restart
    for seed in range(12):
        _, data = generate_random_scenario(1, 2, 10, noise=NoiseSpec(), seed=seed)
        cases.append((data, SolverConfig(S=3, restarts=4, seed=seed, keep_history=True)))
    start = Assignment(np.random.default_rng(1).integers(1, 4, size=noisy.N))
    cases.append((noisy, SolverConfig(S=3, restarts=5, seed=6, init_labels=start)))
    cases.append((noisy, SolverConfig(S=3, restarts=6, seed=7, max_iters=2, keep_history=True)))

    outcomes = {}
    for G in (1, 3, None):
        runs = []
        for data, cfg in cases:
            cells = (G or cfg.restarts) * cfg.S * data.N
            monkeypatch.setattr(bcd, "_GROUP_CELLS", cells)
            runs.append(_outcome(data, cfg))
        outcomes[G] = runs
    assert repr(outcomes[3]) == repr(outcomes[1])
    assert repr(outcomes[None]) == repr(outcomes[1])
    # the cases above are what make the test: check they came out
    reports = [out[0] for out in outcomes[1] if not isinstance(out, str)]
    assert 0 < len(reports) < len(cases)
    assert any(report["degenerate_restarts"] for report in reports)
    assert (reports[-1]["iterations"], reports[-1]["converged"]) == (2, False)


def test_group_size_does_not_change_results(monkeypatch):
    _check_group_sizes(monkeypatch)


def test_group_size_does_not_change_blocked_results(monkeypatch):
    # blocks of 2 samples at n = 3 and of 9 at n = 1, so every fit of
    # every case sums more than one block
    monkeypatch.setattr("slsid.model._SUM_BLOCK", 18)
    _check_group_sizes(monkeypatch)


def test_report_does_not_change_when_more_solves_run():
    # the winner's labels, parameters, trace and history belong to its
    # report, not to arrays that later iterations or solves write
    cfg = SolverConfig(S=3, restarts=6, seed=3, max_iters=30, keep_history=True)
    first, second = (
        generate_random_scenario(2, 3, 300, (-5, 5), NoiseSpec("gaussian", 2.0), seed)[1]
        for seed in (4, 5)
    )
    assert bcd._GROUP_CELLS // (cfg.S * first.N) >= cfg.restarts  # one group
    report = bcd_solve(first, cfg)
    before = repr((report, _reported(report)))
    assert report.history and report.restart_index > 0
    other = bcd_solve(second, cfg)
    assert other.to_dict() != report.to_dict()
    assert repr((report, _reported(report))) == before


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"S": 0}, "S must be >= 1"),
        ({"S": 2, "max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"S": 2, "restarts": 0}, "restarts must be >= 1, got 0"),
        ({"S": 2**63}, f"S must be <= {2**63 - 1}, got {2**63}"),
        ({"S": 2, "restarts": 10_001}, "restarts must be <= 10000, got 10001"),
        ({"S": 2, "restarts": 10**20}, f"restarts must be <= 10000, got {10**20}"),
    ],
)
def test_solver_config_counts_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"S": 2.5}, TypeError, "S must be an integer, got 2.5"),
        ({"S": 2, "restarts": 2.5}, TypeError, "restarts must be an integer, got 2.5"),
        ({"S": 2, "max_iters": 1.5}, TypeError, "max_iters must be an integer, got 1.5"),
        ({"S": 2, "seed": 1.0}, TypeError, "seed must be an integer, got 1.0"),
        ({"S": 2, "seed": -1}, ValueError, "seed must be None or >= 0, got -1"),
    ],
)
def test_solver_config_non_integer_counts_rejected(kwargs, error, message):
    # rejected at construction, naming the field, not inside bcd_solve
    with pytest.raises(error, match=message):
        SolverConfig(**kwargs)


def test_restart_bound_leaves_room_for_the_warm_start():
    # MAX_RESTARTS random starts, plus the one from init_labels that
    # select_order adds to each candidate's count
    assert bcd.MAX_RESTARTS == 10_000
    assert SolverConfig(S=2, restarts=10_000).restarts == 10_000
    labels = Assignment(np.array([1, 2, 1]))
    assert SolverConfig(S=2, restarts=10_001, init_labels=labels).restarts == 10_001
    with pytest.raises(ValueError, match="restarts must be <= 10001, got 10002"):
        SolverConfig(S=2, restarts=10_002, init_labels=labels)


def test_solver_config_counts_are_ints():
    cfg = SolverConfig(S=np.int64(2), max_iters=np.int32(5), restarts=True, seed=np.uint8(3))
    assert (cfg.S, cfg.max_iters, cfg.restarts, cfg.seed) == (2, 5, 1, 3)
    assert all(type(v) is int for v in (cfg.S, cfg.max_iters, cfg.restarts, cfg.seed))
    assert SolverConfig(S=2, seed=None).seed is None
    assert SolverConfig(S=2, seed=2**70).seed == 2**70


def test_init_labels_start_the_last_restart():
    # with init_labels, R restarts give the better of R - 1 cold restarts
    # (the same seeds) and one restart from the labels; a tie goes to cold
    def solve(data, cfg):
        try:
            return bcd_solve(data, cfg)
        except SolverFailure:
            return None

    cases = []
    for seed in range(8):
        cases.append((generate_random_scenario(1, 2, 10, noise=NoiseSpec(), seed=seed)[1], 3, 100))
    for seed in range(4):
        noise = NoiseSpec("gaussian", 0.5)
        cases.append((generate_random_scenario(2, 2, 60, noise=noise, seed=seed)[1], 2, 3))
    seen = set()
    for i, (data, S, max_iters) in enumerate(cases):
        init = Assignment(np.random.default_rng(i).integers(1, S + 1, size=data.N))
        for R in (2, 4):
            cfg = SolverConfig(S=S, restarts=R, seed=i, max_iters=max_iters, init_labels=init)
            cold = solve(data, replace(cfg, restarts=R - 1, init_labels=None))
            warm = solve(data, replace(cfg, restarts=1))
            got = solve(data, cfg)
            if cold is None and warm is None:
                seen.add("both degenerate")
                assert got is None
                continue
            degenerate = (R - 1 if cold is None else cold.degenerate_restarts) + (warm is None)
            if warm is None or (cold is not None and cold.objective <= warm.objective):
                tie = warm is not None and cold.objective == warm.objective
                seen.add("tie" if tie else "cold")
                want = cold.to_dict() | {"degenerate_restarts": degenerate}
            else:
                seen.add("warm")
                want = warm.to_dict() | {"restart_index": R - 1, "degenerate_restarts": degenerate}
            assert got.to_dict() == want, (i, R)
    assert seen == {"both degenerate", "tie", "cold", "warm"}


def test_single_subsystem_runs_one_restart(monkeypatch):
    # with S=1 every restart starts from all-ones labels and descends alike,
    # and restart 0 wins every tie, so one restart gives the same report
    _, data = generate_random_scenario(3, 1, 300, (-5, 5), NoiseSpec("gaussian", 0.2), 9)
    run_group = bcd._run_group
    counts = []

    def counting(data, cfg, first, count, table, work):
        counts.append(count)
        return run_group(data, cfg, first, count, table, work)

    monkeypatch.setattr(bcd, "_run_group", counting)
    many = _outcome(data, SolverConfig(S=1, restarts=10, seed=3, keep_history=True))
    assert counts == [1]
    one = _outcome(data, SolverConfig(S=1, restarts=1, seed=3, keep_history=True))
    assert repr(many) == repr(one)
    assert many[1], "the comparison must cover a kept history"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 3), st.integers(1, 2), st.integers(1, 5))
def test_objective_never_below_oracle(seed, S, n, extra):
    rng = np.random.default_rng(seed)
    N = S + extra
    model = SLModel(rng.uniform(-3, 3, size=(S, n)))
    X = rng.uniform(-3, 3, size=(N, n))
    labels = Assignment(rng.integers(1, S + 1, size=N))
    y = np.einsum("ij,ij->i", X, model.params[labels.labels - 1]) + rng.normal(0, 0.3, N)
    data = Dataset(X, y)
    optimum, _ = oracle_global(data, S)
    report = bcd_solve(data, SolverConfig(S=S, restarts=4, seed=seed))
    assert report.objective >= optimum - 1e-9
    assert report.objective == objective_integer(data, report.model, report.assignment)


def _canonical(labels) -> tuple[int, ...]:
    """Labels renumbered by first appearance."""
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(int(v), len(mapping)) for v in labels)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_certified_exact_fit_is_the_truth(seed):
    # on noise-free data whose truth labels certify, the truth is the only
    # zero-residual split, so any descent fit that reaches zero objective
    # (to 1e-20 y'y) has the truth labels up to relabeling; N spans the
    # certificate's sample count, from 3 below it to 11 above
    rng = np.random.default_rng(seed)
    n, S = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    N = max(S, min_samples_ours(n, S) + int(rng.integers(-3, 12)))
    labels = Assignment(rng.integers(1, S + 1, size=N))
    model = SLModel(rng.uniform(-5, 5, size=(S, n)))
    data = simulate(model, rng.uniform(-5, 5, size=(N, n)), labels)
    assume(pe_report(data, model).certified)
    report = bcd_solve(data, SolverConfig(S=S, restarts=20, seed=seed))
    assume(report.objective <= 1e-20 * float(data.outputs @ data.outputs))
    assert _canonical(report.assignment.labels) == _canonical(labels.labels)


@pytest.mark.parametrize("S", [1, 2, 3, 255, 256, 257, 300])
def test_relabel_at_every_label_width(S):
    # labels travel in the smallest unsigned type holding S; each is the
    # first minimum (ties to the smallest index), and the objective the
    # sum of the column minima, bit for bit, below and past 255 alike
    rng = np.random.default_rng(S)
    N = 40
    # four values only, so most columns tie between several rows
    sq = rng.uniform(1.0, 2.0, size=4)[rng.integers(0, 4, size=(3, S, N))]
    sq[:, -1, 0] = 0.0  # the minimum in the last row alone
    sq[:, -2:, 1] = 0.0  # tied in the last two rows
    sq[:, :, 2] = 0.0  # tied in every row
    sq[1, S // 2 :, 3] = 0.0  # tied from the middle row on
    for stack in (sq, sq[1]):
        labels, objective = bcd._relabel(stack)
        assert labels.dtype == np.min_scalar_type(S)
        np.testing.assert_array_equal(labels, np.argmin(stack, axis=-2))
        want = np.sum(stack.min(axis=-2), axis=-1)
        assert objective.tobytes() == want.tobytes()
    assert labels[0] == S - 1 and labels[1] == max(S - 2, 0) and labels[2] == 0


@pytest.mark.parametrize("S", [2, 300])
@pytest.mark.parametrize("init", [False, True])
def test_start_labels_are_the_seeded_draws(S, init):
    # narrowed after the draw, so each restart's stream is the int64 one
    N = 700
    data = Dataset(np.ones((N, 1)), np.zeros(N))
    start = Assignment(np.arange(N) % S + 1) if init else None
    cfg = SolverConfig(S=S, restarts=5, seed=11, init_labels=start)
    got = bcd._start_labels(data, cfg, 1, 4)
    assert got.dtype == np.min_scalar_type(S)
    for i, r in enumerate(range(1, 5)):
        if init and r == cfg.restarts - 1:
            want = start.labels - 1
        else:
            rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(r,)))
            want = rng.integers(1, S + 1, N) - 1
        np.testing.assert_array_equal(got[i], want)
    assert got.max() == S - 1


@pytest.mark.parametrize("S", [2, 300])
def test_public_labels_keep_their_integer_type(S):
    # the descent's narrow labels are widened in every report
    _, data = generate_random_scenario(1, S, 2 * S, (-5, 5), NoiseSpec("gaussian", 0.1), S)
    report = bcd_solve(data, SolverConfig(S=S, restarts=1, max_iters=3, keep_history=True))
    assert report.assignment.labels.dtype == np.dtype(int)
    assert report.history and all(h.labels.dtype == np.intp for h in report.history)
    assert assign_step(data, report.model).labels.dtype == np.dtype(int)


def test_labels_past_one_byte_keep_the_objective_exact():
    # S = 257: two-byte labels in the descent, and labels above 256 in the
    # report, whose objective is that of its own params and labels
    _, data = generate_random_scenario(1, 257, 1028, (-5, 5), NoiseSpec("gaussian", 0.01), 2)
    report = bcd_solve(data, SolverConfig(S=257, restarts=1, max_iters=20, seed=2))
    assert report.assignment.labels.max() == 257
    assert report.objective == objective_integer(data, report.model, report.assignment)


class TestAssignStep:
    def test_true_model_recovers_labels(self):
        model, data = fixtures.example_two()
        assert assign_step(data, model) == data.truth

    def test_tie_breaks_to_smallest_index(self):
        _, data = fixtures.example_one()
        model = SLModel(np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(assign_step(data, model).labels, 1)

    def test_prefers_exact_fit(self):
        data = Dataset(np.array([[1.0]]), np.array([3.0]))
        model = SLModel(np.array([[2.0], [3.0]]))
        np.testing.assert_array_equal(assign_step(data, model).labels, [2])


class TestBcdSolve:
    def test_example_two_exact_recovery(self):
        model, data = fixtures.example_two()
        report = bcd_solve(data, SolverConfig(S=2, restarts=10, seed=1))
        assert report.objective < 1e-12
        assert report.converged
        # the two rows in either order, entrywise within 1e-9
        P = report.model.params
        assert min(np.abs(P - model.params).max(), np.abs(P[::-1] - model.params).max()) <= 1e-9
        canon = {tuple(report.assignment.labels), tuple(3 - report.assignment.labels)}
        assert tuple(fixtures.EXAMPLE2_LABELS) in canon
        assert_trace_descends(report.trace)
        assert is_stationary(data, report)

    def test_paper_style_initialization_converges(self):
        _, data = fixtures.example_two()
        init = Assignment(np.array([1, 1, 2, 1, 1, 1, 1, 2]))
        report = bcd_solve(
            data,
            SolverConfig(S=2, restarts=1, init_labels=init, seed=0),
        )
        assert report.objective < 1e-12
        assert report.iterations <= 5

    def test_seven_sample_variant_has_two_attractors(self):
        model, data = fixtures.example_two_seven()
        found_truth = found_alt = False
        for seed in range(40):
            report = bcd_solve(data, SolverConfig(S=2, restarts=1, seed=seed))
            if report.objective < 1e-12:
                if same_param_set(report.model.params, model.params):
                    found_truth = True
                elif same_param_set(report.model.params, EXAMPLE2_ALT):
                    found_alt = True
        assert found_truth and found_alt

    def test_single_subsystem_is_plain_least_squares(self):
        rng = np.random.default_rng(7)
        model = SLModel(rng.uniform(-2, 2, size=(1, 2)))
        data = simulate(
            model,
            rng.uniform(-2, 2, size=(30, 2)),
            Assignment(np.ones(30, int)),
            NoiseSpec("gaussian", 0.1, seed=3),
        )
        report = bcd_solve(data, SolverConfig(S=1, restarts=1, seed=0))
        assert report.iterations == 1
        assert report.converged
        theta, _ = fit_members(moment_table(data), np.ones((1, 30)), data.n)
        np.testing.assert_array_equal(report.model.params[0], theta[0])
        assert is_stationary(data, report)

    def test_returned_assignment_is_fixed_point(self):
        _, data = generate_random_scenario(
            2, 2, 100, (-5, 5), NoiseSpec("gaussian", 0.1), 21
        )
        report = bcd_solve(data, SolverConfig(S=2, restarts=5, seed=2))
        assert assign_step(data, report.model) == report.assignment
        assert report.objective == objective_integer(
            data, report.model, report.assignment
        )

    def test_relaxed_objective_of_binary_solution_matches(self):
        _, data = fixtures.example_two()
        report = bcd_solve(data, SolverConfig(S=2, restarts=4, seed=3))
        w = one_hot(report.assignment.labels, 2)
        assert relaxed_objective(data, report.model, w) == report.objective

    def test_deterministic_given_seed(self):
        _, data = generate_random_scenario(
            2, 3, 60, (-5, 5), NoiseSpec("gaussian", 0.2), 4
        )
        r1 = bcd_solve(data, SolverConfig(S=3, restarts=6, seed=11))
        r2 = bcd_solve(data, SolverConfig(S=3, restarts=6, seed=11))
        np.testing.assert_array_equal(r1.model.params, r2.model.params)
        assert r1.assignment == r2.assignment
        assert r1.objective == r2.objective
        assert r1.restart_index == r2.restart_index
        np.testing.assert_array_equal(r1.trace, r2.trace)

    def test_init_labels_checked(self):
        _, data = fixtures.example_two()
        for init, message in [
            (Assignment(np.ones(7, int)), "7 labels for 8 samples"),
            (Assignment(np.full(8, 3)), "above S=2"),
        ]:
            with pytest.raises(ValueError, match=message):
                bcd_solve(data, SolverConfig(S=2, restarts=1, init_labels=init))

    def test_init_labels_checked_before_any_restart(self, monkeypatch):
        # at N = 100000 and S = 2 the 10 restarts run in groups of one: a
        # wrong-length Assignment is refused before the first group, and a
        # list or array when the config is built
        _, data = generate_random_scenario(2, 2, 100_000, seed=0)

        def no_restart(*args, **kwargs):
            raise AssertionError("a restart ran before init_labels was checked")

        monkeypatch.setattr(bcd, "_run_group", no_restart)
        init = Assignment(np.ones(data.N - 1, int))
        with pytest.raises(ValueError, match=f"{data.N - 1} labels for {data.N} samples"):
            bcd_solve(data, SolverConfig(S=2, restarts=10, init_labels=init))
        for labels in (np.ones(data.N, int).tolist(), np.ones(data.N, int)):
            with pytest.raises(TypeError, match="init_labels must be an Assignment"):
                bcd_solve(data, SolverConfig(S=2, restarts=10, init_labels=labels))

    def test_too_few_samples_rejected(self):
        data = Dataset(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            bcd_solve(data, SolverConfig(S=3))

    def test_empty_cluster_reseeded(self):
        # an initialization missing label 2 entirely must still produce a
        # two-cluster fit
        model, data = fixtures.example_two()
        init = Assignment(np.ones(8, int))
        report = bcd_solve(
            data, SolverConfig(S=2, restarts=1, init_labels=init)
        )
        assert set(np.unique(report.assignment.labels)) == {1, 2}
        assert_trace_descends(report.trace)

    def test_duplicate_regressors_converge_by_objective_rule(self):
        # every sample identical: the spare cluster keeps collapsing, but the
        # objective stalls at zero and the decrease rule stops the run
        data = Dataset(np.tile([1.0, 0.0], (4, 1)), np.ones(4))
        report = bcd_solve(data, SolverConfig(S=2, restarts=3, seed=0))
        assert report.objective == 0.0
        assert report.converged

    def test_winner_is_its_own_restart_run_alone(self):
        # noise-free S=2 data fit with S=3: of 8 restarts, 3 degenerate and
        # restarts 2, 3 and 4 tie at the lowest objective
        _, data = generate_random_scenario(2, 2, 12, noise=NoiseSpec(), seed=4)
        cfg = SolverConfig(S=3, restarts=8, seed=4, keep_history=True)
        alone = {}
        for r in range(cfg.restarts):
            ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))
            init = Assignment(np.random.default_rng(ss).integers(1, cfg.S + 1, size=data.N))
            try:
                alone[r] = bcd_solve(data, replace(cfg, restarts=1, init_labels=init))
            except SolverFailure:
                pass
        best = min(alone, key=lambda r: (alone[r].objective, r))
        assert (best, cfg.restarts - len(alone)) == (2, 3)
        report = bcd_solve(data, cfg)
        expected = alone[best].to_dict() | {"restart_index": 2, "degenerate_restarts": 3}
        assert report.to_dict() == expected
        for got, want in zip(report.history, alone[best].history, strict=True):
            assert (got.iteration, got.objective) == (want.iteration, want.objective)
            np.testing.assert_array_equal(got.params, want.params)
            np.testing.assert_array_equal(got.labels, want.labels)

    def test_history_kept_on_request(self):
        _, data = fixtures.example_two()
        report = bcd_solve(data, SolverConfig(S=2, restarts=2, seed=1, keep_history=True))
        assert report.history
        last = report.history[-1]
        assert last.objective == report.objective
        np.testing.assert_array_equal(last.labels, report.assignment.labels)


class TestStationarity:
    def test_converged_report_is_stationary(self):
        _, data = fixtures.example_two()
        report = bcd_solve(data, SolverConfig(S=2, restarts=10, seed=1))
        assert is_stationary(data, report)

    def test_single_iteration_generally_not_stationary(self):
        _, data = generate_random_scenario(
            2, 2, 200, (-5, 5), NoiseSpec("gaussian", 0.1), 8
        )
        stalled = bcd_solve(data, SolverConfig(S=2, restarts=1, max_iters=1, seed=0))
        converged = bcd_solve(data, SolverConfig(S=2, restarts=1, seed=0))
        assert not stalled.converged
        assert not is_stationary(data, stalled)
        assert is_stationary(data, converged)


def test_descent_invariant_across_runs():
    rng = np.random.default_rng(0)
    for seed in range(8):
        n, S = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        N = int(rng.integers(S, 40) + S)
        sigma = float(rng.choice([0.0, 0.1, 1.0]))
        noise = NoiseSpec("gaussian", sigma, seed) if sigma > 0 else NoiseSpec()
        _, data = generate_random_scenario(n, S, N, (-5, 5), noise, seed)
        report = bcd_solve(data, SolverConfig(S=S, restarts=3, seed=seed))
        assert_trace_descends(report.trace)


def test_runtime_scales_roughly_linearly_in_N():
    # coarse guard: ten times the data may not cost more than thirty times
    # the time on the benchmark scenario
    def timed(N):
        _, data = generate_random_scenario(
            2, 2, N, (-5, 5), NoiseSpec("gaussian", 0.1), 3
        )
        cfg = SolverConfig(S=2, restarts=3, seed=5)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            bcd_solve(data, cfg)
            best = min(best, time.perf_counter() - start)
        return best

    timed(1000)  # warm the caches before measuring
    assert timed(10_000) < 30.0 * timed(1000)
