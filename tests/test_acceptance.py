"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and runtimes.
"""

import time

import numpy as np

from slsid import (
    Assignment,
    Dataset,
    NoiseSpec,
    OrderSelectConfig,
    SLModel,
    SolverConfig,
    SweepScenario,
    bcd_solve,
    check_partition_condition,
    classification_error,
    consistency_sweep,
    generate_random_scenario,
    min_samples_bako,
    min_samples_ours,
    min_samples_table,
    min_samples_vidal,
    nmse,
    objective_integer,
    oracle_global,
    pe_report,
    simulate,
)
from slsid import fixtures
from slsid.bench import (
    EXAMPLE1_ALT_PARAMS,
    EXAMPLE2_ALT_PARAMS,
    TABLE1_EXPECTED,
    ScenarioSpec,
    run_cell,
)
from slsid.model import residual_matrix
from slsid.oracle import same_param_set, unique_optimum
from slsid.pe import REFUTED

from claims import is_stationary, one_hot, relaxed_objective


class budget:
    """Measure a criterion's runtime, enforce its budget, print its verdict."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"
        return False


def test_table1_reproduction():
    with budget("table1-reproduction", 1.0):
        table = min_samples_table(10, 7)
        for (n, S), expected in TABLE1_EXPECTED.items():
            got = table[(n, S)]
            assert (got.ours, got.bako, got.vidal) == expected, (n, S)
        assert len(TABLE1_EXPECTED) == 70
        assert (
            min_samples_ours(10, 10),
            min_samples_bako(10, 10),
            min_samples_vidal(10, 10),
        ) == (505, 1000, 184755)


def test_example2_identification():
    with budget("example2-identification", 1.0):
        model, data = fixtures.example_two()
        report = bcd_solve(data, SolverConfig(S=2, restarts=10, seed=1))
        assert report.objective < 1e-12
        _, perm = nmse(report.model, model)
        aligned = report.model.params[np.argsort(perm)]
        assert np.allclose(aligned, model.params, rtol=0.0, atol=1e-9)
        assert classification_error(report.assignment, data.truth, perm) == 0.0


def test_tightness_seven_sample_variant():
    with budget("tightness-seven-sample", 1.0):
        model, data = fixtures.example_two_seven()
        _, classes = oracle_global(data, 2)
        assert not unique_optimum(classes)
        exact = [c for c in classes if abs(c.objective) <= 1e-12]
        assert any(same_param_set(c.params, model.params) for c in exact)
        assert any(same_param_set(c.params, EXAMPLE2_ALT_PARAMS) for c in exact)


def test_example1_pipeline():
    with budget("example1-pipeline", 1.0):
        model, data = fixtures.example_one()
        report = pe_report(data, model)
        assert not report.cond3_partition.passed
        assert not report.certified
        optimum, classes = oracle_global(data, 2)
        clean = [c for c in classes if not c.degenerate]
        assert optimum <= 1e-12
        assert len(clean) >= 2
        assert any(same_param_set(c.params, model.params) for c in clean)
        assert any(same_param_set(c.params, EXAMPLE1_ALT_PARAMS) for c in clean)
        model_aug, data_aug = fixtures.example_one_augmented()
        assert pe_report(data_aug, model_aug).certified
        assert unique_optimum(oracle_global(data_aug, 2)[1])


def test_theorem1_property_suite():
    # wherever the excitation certificate holds, the exhaustive oracle must
    # find exactly one solution class; zero violations allowed
    with budget("theorem1-property-suite", 120.0):
        rng = np.random.default_rng(2024)
        certified = 0
        for trial in range(100):
            n = int(rng.choice([2, 3]))
            N = int(rng.integers(3 * n, 11))
            S = 2
            model = SLModel(rng.uniform(-5, 5, size=(S, n)))
            X = rng.uniform(-5, 5, size=(N, n))
            labels = Assignment(rng.integers(1, S + 1, size=N))
            data = simulate(model, X, labels)
            report = pe_report(data, model)
            if report.certified:
                certified += 1
                unique = unique_optimum(oracle_global(data, S)[1])
                assert unique, f"trial {trial}: certified but not unique"
        assert certified >= 15, f"only {certified} certified instances; suite too weak"


def test_theorem1_at_the_minimal_sample_count():
    # the paper's count ((n-1)S^2 + (n+1)S)/2 is enough and tight: at the
    # minimal profile, cluster sizes n + (n-1)(S-s) for s = 1..S, noise-free
    # generic data are certified and the oracle finds one class, and one
    # sample fewer in any cluster refutes the partition condition
    with budget("theorem1-minimal-count", 5.0):
        rng = np.random.default_rng(26)
        for n, S in [(2, 3), (2, 4), (3, 3), (2, 5)]:
            sizes = [n + (n - 1) * (S - s) for s in range(1, S + 1)]
            assert sum(sizes) == min_samples_ours(n, S)
            for draw in range(3):
                labels = rng.permutation(np.repeat(np.arange(1, S + 1), sizes))
                model = SLModel(rng.uniform(-5, 5, size=(S, n)))
                X = rng.uniform(-5, 5, size=(labels.size, n))
                data = simulate(model, X, Assignment(labels))
                where = (n, S, draw)
                assert pe_report(data, model).certified, where
                assert unique_optimum(oracle_global(data, S)[1]), where
                for s in range(1, S + 1):
                    keep = np.arange(labels.size) != data.truth.indices_of(s)[-1]
                    fewer = Dataset(X[keep], data.outputs[keep], Assignment(labels[keep]))
                    check = check_partition_condition(fewer, fewer.truth, S)
                    assert check.status == REFUTED, (*where, s)


def test_relaxation_equivalence_suite():
    with budget("relaxation-equivalence", 60.0):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            S = int(rng.integers(2, 4))
            N = int(rng.integers(S, 9))
            model = SLModel(rng.uniform(-3, 3, size=(S, n)))
            X = rng.uniform(-3, 3, size=(N, n))
            y = np.einsum(
                "ij,ij->i", X, model.params[rng.integers(0, S, size=N)]
            ) + rng.normal(0, 0.4, size=N)
            data = Dataset(X, y)
            r2 = residual_matrix(data, model) ** 2
            inner = Assignment(np.argmin(r2, axis=0) + 1)
            w_inner = one_hot(inner.labels, S)
            # (a) the closed-form inner minimizer is binary and attains the
            # per-sample floor exactly
            assert ((w_inner == 0.0) | (w_inner == 1.0)).all()
            assert (w_inner.sum(axis=0) == 1.0).all()
            floor = relaxed_objective(data, model, w_inner)
            assert floor == float(np.sum(r2[inner.labels - 1, np.arange(N)]))
            # (b) no feasible fractional membership beats it
            for _ in range(100):
                raw = rng.uniform(0, 1, size=(S, N))
                w = raw / raw.sum(axis=0, keepdims=True)
                assert relaxed_objective(data, model, w) >= floor - 1e-9
            # (c) relaxed equals integer exactly at binary points
            assert floor == objective_integer(data, model, inner)


def test_bcd_descent_and_stationarity():
    with budget("bcd-descent-invariant", 120.0):
        runs = []
        model2, data2 = fixtures.example_two()
        runs.append((data2, bcd_solve(data2, SolverConfig(S=2, restarts=10, seed=1))))
        _, data7 = fixtures.example_two_seven()
        runs.append((data7, bcd_solve(data7, SolverConfig(S=2, restarts=5, seed=3))))
        for seed, (n, S, N, sigma) in enumerate(
            [(2, 2, 200, 0.1), (3, 2, 300, 0.1), (2, 3, 300, 0.1), (2, 1, 100, 0.5), (4, 3, 500, 0.0)]
        ):
            noise = NoiseSpec("gaussian", sigma, seed) if sigma > 0 else NoiseSpec()
            _, data = generate_random_scenario(n, S, N, (-5, 5), noise, seed)
            runs.append((data, bcd_solve(data, SolverConfig(S=S, restarts=5, seed=seed))))
        for data, report in runs:
            drops = np.diff(report.trace)
            assert np.all(drops <= 1e-9 * (1.0 + np.abs(report.trace[:-1])))
            assert is_stationary(data, report)
            assert report.objective == objective_integer(
                data, report.model, report.assignment
            )


def test_table4_desk_scale_analogue():
    with budget("table4-desk-scale", 300.0):
        for n, S, N in [(2, 2, 500), (3, 2, 1000), (2, 3, 1000)]:
            spec = ScenarioSpec(
                n=n, S=S, N=N, sigma=0.1, repetitions=20, restarts=10, seed=17
            )
            result = run_cell(spec)
            nmse_vals = [r["nmse"] for r in result.raw if not np.isnan(r["nmse"])]
            ce_vals = [r["ce"] for r in result.raw if not np.isnan(r["ce"])]
            assert len(nmse_vals) == 20, f"cell {(n, S, N)} lost repetitions"
            med_nmse = float(np.median(nmse_vals))
            med_ce = float(np.median(ce_vals))
            assert med_nmse < 1e-4, f"cell {(n, S, N)}: median NMSE {med_nmse}"
            assert med_ce < 2.0, f"cell {(n, S, N)}: median CE {med_ce}%"


def test_order_selection_consistency():
    with budget("order-selection-consistency", 300.0):
        cfg = OrderSelectConfig(
            S_bar=4,
            penalty="auto",
            solver=SolverConfig(S=1, restarts=10, seed=0),
        )
        rows = consistency_sweep(
            SweepScenario(n=2, S=2, sigma=0.1), [200, 1000, 2000, 5000], 20, cfg, seed=11
        )
        rates = {row["N"]: row["recovery_rate"] for row in rows}
        assert rates[2000] >= 0.8, rates
        assert rates[200] <= rates[1000] <= rates[5000], rates
