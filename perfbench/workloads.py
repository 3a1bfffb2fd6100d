"""The four benchmark workloads: inputs, the operation, and its check.

Every workload is a fixed mix of *kinds* (one problem size each).  A round
runs each kind ``weight`` times; the run loop repeats whole rounds, so the
mix, and with it the median and tail rank, is the same in every run however
many rounds fit in the time.  Inputs are drawn from the workload seed before
timing starts; each kind holds ``weight * pool_rounds`` distinct instances
and reuses them in order when a run needs more (slsid keeps no state
between calls, so reuse costs the same as a fresh input).

Each workload exposes:

- ``call(inst)``: the one public slsid call that is timed;
- ``check(inst, out)``: ``None`` when the output is right, else the reason;
- ``score(inst, out)``: accuracy figures, computed outside the timing;
- ``counts(inst, out)``: per-layer counts read off the output.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from slsid import (
    Assignment,
    Dataset,
    NoiseSpec,
    OrderSelectConfig,
    SLModel,
    SolverConfig,
    SolverFailure,
    bcd_solve,
    classification_error,
    generate_random_scenario,
    nmse,
    objective_integer,
    oracle_global,
    pe_report,
    select_order,
    simulate,
)

SIGMA = 0.1
RESTARTS = 10
S_BAR = 4
NRFTP_NMSE = 1e-4
ORACLE_TOL = 1e-9
# certify rows have norms of at most 5 and clusters at most 14 rows, so a
# block Gram's largest eigenvalue is at most 14 * 25 = 350.  Adding rows
# never lowers the smallest eigenvalue, so when every n-row subset's Gram
# has its smallest eigenvalue above this floor (> 350 * 1e-10), every block
# of n or more rows passes slsid's 1e-10 rank test, and the reference
# verdict below is exact.
SUBSET_EIG_FLOOR = 1e-7
ORTHO_FLOOR = 1e-6


@dataclass(frozen=True)
class Kind:
    label: str
    weight: int
    make: Callable[[np.random.Generator, "Clock"], object]


class Clock:
    """Accumulates the time spent in slsid's data generators."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


class Workload:
    name = ""
    span = ""  # span name of the timed public call
    # highest percentile with ten samples beyond it in a 20 s run; fixed so
    # that it stays on the same problem size when the round count changes
    tail_pct = 90.0
    pool_rounds = 8

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.kinds = self.tiny_kinds() if tiny else self.full_kinds()

    def full_kinds(self) -> list[Kind]:
        raise NotImplementedError

    def tiny_kinds(self) -> list[Kind]:
        raise NotImplementedError

    def round_plan(self) -> list[int]:
        """Kind indices of one round, each kind spread evenly over it."""
        slots = [
            ((j + 0.5) / kind.weight, k)
            for k, kind in enumerate(self.kinds)
            for j in range(kind.weight)
        ]
        return [k for _, k in sorted(slots)]

    def generate(self, seed: int, clock: Clock) -> list[list]:
        pools = []
        for k, kind in enumerate(self.kinds):
            pool = []
            for i in range(kind.weight * (1 if self.tiny else self.pool_rounds)):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, i))
                pool.append(kind.make(np.random.default_rng(ss), clock))
            pools.append(pool)
        return pools

    def warm_up(self) -> None:
        """One call per tiny kind, so lazy numpy/LAPACK set-up is not timed."""
        for k, kind in enumerate(self.tiny_kinds()):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(99, k)))
            self.call(kind.make(rng, Clock()))

    def call(self, inst):
        raise NotImplementedError

    def check(self, inst, out) -> str | None:
        raise NotImplementedError

    def score(self, inst, out) -> dict:
        return {}

    def accuracy(self, scores: list[dict]) -> dict[str, tuple[float, str]]:
        return {}

    def counts(self, inst, out) -> dict[str, float]:
        return {}

    def trace_hooks(self) -> dict:
        """Per span name, counts to read off each traced call (see tracing.py)."""
        return {}


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


# --------------------------------------------------------------------------
# fit: bcd_solve on the bench cells
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FitInstance:
    model: SLModel
    data: Dataset
    cfg: SolverConfig


def _fit_kind(n: int, S: int, N: int, weight: int) -> Kind:
    def make(rng, clock):
        seed = _int_seed(rng)
        model, data = clock(
            generate_random_scenario, n, S, N, (-5.0, 5.0), NoiseSpec("gaussian", SIGMA), seed
        )
        return FitInstance(model, data, SolverConfig(S=S, restarts=RESTARTS, seed=seed + 1))

    return Kind(f"n{n}_S{S}_N{N}", weight, make)


class Fit(Workload):
    name = "fit"
    span = "bcd.solve"
    tail_pct = 92.0
    pool_rounds = 10

    def full_kinds(self):
        return [
            _fit_kind(2, 2, 2000, 5),
            _fit_kind(4, 3, 5000, 5),
            _fit_kind(3, 3, 10000, 2),
            _fit_kind(5, 4, 20000, 2),
        ]

    def tiny_kinds(self):
        return [_fit_kind(2, 2, 60, 1), _fit_kind(2, 3, 90, 1)]

    def call(self, inst):
        return bcd_solve(inst.data, inst.cfg)

    def check(self, inst, out):
        expected = objective_integer(inst.data, out.model, out.assignment)
        if out.objective != expected:
            return f"objective {out.objective!r} != objective_integer {expected!r}"
        return None

    def score(self, inst, out):
        err, perm = nmse(out.model, inst.model)
        ce = classification_error(out.assignment, inst.data.truth, perm)
        return {"nmse": err, "ce_pct": 100.0 * ce}

    def accuracy(self, scores):
        errs = [s["nmse"] for s in scores]
        return {
            "ce_mean_pct": (statistics.fmean(s["ce_pct"] for s in scores), "%"),
            "nmse_median": (statistics.median(errs), "ratio"),
            "nrftp_ratio": (sum(e < NRFTP_NMSE for e in errs) / len(errs), "ratio"),
        }

    def counts(self, inst, out):
        return {"bcd.restarts": inst.cfg.restarts, "bcd.degenerate": out.degenerate_restarts}


# --------------------------------------------------------------------------
# select: select_order on the consistency-sweep cells
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectInstance:
    data: Dataset
    cfg: OrderSelectConfig
    true_S: int


def _select_kind(N: int, weight: int, n: int = 2, S: int = 2) -> Kind:
    def make(rng, clock):
        seed = _int_seed(rng)
        _, data = clock(
            generate_random_scenario, n, S, N, (-5.0, 5.0), NoiseSpec("gaussian", SIGMA), seed
        )
        cfg = OrderSelectConfig(S_bar=S_BAR, solver=SolverConfig(S=1, seed=seed + 1))
        return SelectInstance(data, cfg, S)

    return Kind(f"N{N}", weight, make)


class Select(Workload):
    name = "select"
    span = "order.select"
    tail_pct = 90.0
    pool_rounds = 10

    def full_kinds(self):
        return [
            _select_kind(200, 6),
            _select_kind(1000, 6),
            _select_kind(2000, 2),
            _select_kind(5000, 3),
        ]

    def tiny_kinds(self):
        return [_select_kind(40, 1), _select_kind(80, 1)]

    def call(self, inst):
        return select_order(inst.data, inst.cfg)

    def check(self, inst, out):
        if len(out.candidates) != inst.cfg.S_bar or not 1 <= out.chosen_S <= inst.cfg.S_bar:
            return f"chose S={out.chosen_S} from {len(out.candidates)} candidates"
        win = out.winner
        expected = objective_integer(inst.data, win.model, win.assignment)
        if win.objective != expected:
            return f"winner objective {win.objective!r} != objective_integer {expected!r}"
        fits = [c.fit_term for c in out.candidates]
        for a, b in zip(fits, fits[1:]):
            # the warm-start split makes the fit term non-increasing in S'
            if b > a * (1.0 + 1e-9):
                return f"fit term rose from {a!r} to {b!r}"
        return None

    def score(self, inst, out):
        return {"recovered": out.chosen_S == inst.true_S}

    def accuracy(self, scores):
        return {
            "recovery_rate": (sum(s["recovered"] for s in scores) / len(scores), "ratio")
        }

    def counts(self, inst, out):
        return {"order.candidates": len(out.candidates)}

    def trace_hooks(self):
        def bcd_call(args, kwargs, report, exc):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            counts = {"bcd.restarts": cfg.restarts, "order.bcd_calls": 1}
            if isinstance(exc, SolverFailure):
                counts["bcd.degenerate"] = cfg.restarts
                counts["order.solver_failures"] = 1
            elif exc is None:
                counts["bcd.degenerate"] = report.degenerate_restarts
            return counts

        return {"bcd.solve": bcd_call}


# --------------------------------------------------------------------------
# oracle: exhaustive enumeration, planted and all-zero outputs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleInstance:
    data: Dataset
    S: int
    truth: tuple[int, ...] | None  # canonical planted labels; None for zero outputs


def canonical(labels) -> tuple[int, ...]:
    """Labels renumbered by first appearance."""
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(int(v), len(mapping) + 1) for v in labels)


def stirling2(N: int, k: int) -> int:
    terms = ((-1) ** j * math.comb(k, j) * (k - j) ** N for j in range(k + 1))
    return sum(terms) // math.factorial(k)


def zero_output_classes(N: int, S: int) -> int:
    """Optimal classes when every assignment fits exactly: partitions into <= S blocks."""
    return sum(stirling2(N, k) for k in range(1, S + 1))


def _oracle_kind(S: int, N: int, zero: bool, n: int = 2, weight: int = 1) -> Kind:
    def make(rng, clock):
        X = rng.uniform(-5.0, 5.0, size=(N, n))
        if zero:
            return OracleInstance(Dataset(X, np.zeros(N)), S, None)
        # clusters as equal as possible: an exact-fit cluster is part of a true
        # cluster or has at most n rows, and with these sizes the planted
        # split is the only way to cover the samples with S of them
        labels = rng.permutation(np.resize(np.arange(1, S + 1), N))
        model = SLModel(rng.uniform(-5.0, 5.0, size=(S, n)))
        data = clock(simulate, model, X, Assignment(labels))
        return OracleInstance(data, S, canonical(labels))

    return Kind(f"S{S}_N{N}_{'zero' if zero else 'planted'}", weight, make)


class Oracle(Workload):
    name = "oracle"
    span = "oracle.global"
    tail_pct = 66.0
    pool_rounds = 2

    def full_kinds(self):
        cells = [(2, N) for N in range(10, 15)] + [(3, 8), (3, 9)]
        # S=2, N=13 with zero outputs runs twice a round: its cost lies about
        # 30% from both neighbours in the sorted mix, so the tail percentile
        # can sit on it however many rounds a run holds
        return [
            _oracle_kind(S, N, zero, weight=2 if (S, N, zero) == (2, 13, True) else 1)
            for S, N in cells
            for zero in (False, True)
        ]

    def tiny_kinds(self):
        return [
            _oracle_kind(S, N, zero, n)
            for S, N, n in [(2, 6, 2), (3, 6, 1)]
            for zero in (False, True)
        ]

    def call(self, inst):
        return oracle_global(inst.data, inst.S)

    def check(self, inst, out):
        best, classes = out
        if not best <= ORACLE_TOL:
            return f"optimum {best!r} above {ORACLE_TOL}"
        if inst.truth is None:
            want = zero_output_classes(inst.data.N, inst.S)
            if len(classes) != want:
                return f"{len(classes)} classes, closed form gives {want}"
        elif [c.labels for c in classes] != [inst.truth]:
            return f"planted labels not the single optimal class ({len(classes)} classes)"
        return None

    def counts(self, inst, out):
        return {"oracle.assignments": inst.S**inst.data.N, "oracle.classes": len(out[1])}


# --------------------------------------------------------------------------
# certify: pe_report on labeled data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyInstance:
    data: Dataset
    model: SLModel
    verdict: str


def _smallest_subset_eig(X: np.ndarray) -> float:
    """Smallest Gram eigenvalue over all n-row subsets of X."""
    n = X.shape[1]
    idx = np.array(list(combinations(range(X.shape[0]), n)))
    return float(np.linalg.svd(X[idx], compute_uv=False)[:, -1].min() ** 2)


def _generic_rows(rng, m: int, n: int) -> np.ndarray:
    """m rows with norms in [1, 5] whose every n-row subset is well conditioned."""
    while True:
        d = rng.normal(size=(m, n))
        X = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(1.0, 5.0, (m, 1))
        if m < n or _smallest_subset_eig(X) > SUBSET_EIG_FLOOR:
            return X


def _fanned_rows(rng, m: int) -> np.ndarray:
    """m planar rows on distinct directions spread over a half turn.

    Neighbouring directions differ by at least pi/(2m), which keeps every
    pair far from parallel without drawing and testing C(m, 2) pairs.
    """
    phi = (np.arange(m) + rng.uniform(0.25, 0.75, m)) * np.pi / m
    radius = rng.uniform(1.0, 5.0, m) * rng.choice([-1.0, 1.0], m)
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi)])


def _separating_params(rng, X: np.ndarray, S: int) -> SLModel:
    """Parameters with no regressor near-orthogonal to any pairwise difference."""
    xnorm = np.linalg.norm(X, axis=1)
    while True:
        params = rng.uniform(-5.0, 5.0, size=(S, X.shape[1]))
        ok = True
        for i, j in combinations(range(S), 2):
            diff = params[i] - params[j]
            dnorm = np.linalg.norm(diff)
            if dnorm <= ORTHO_FLOOR or np.any(np.abs(X @ diff) <= ORTHO_FLOOR * xnorm * dnorm):
                ok = False
        if ok:
            return SLModel(params)


def reference_verdict(sizes, n: int, S: int, max_block_size: int = 14) -> str:
    """Partition-condition verdict for generic rows, from cluster sizes alone.

    Generic rows make a block rank-deficient exactly when it has fewer than
    n rows, so a cluster of m rows splits into k all-deficient blocks iff
    k <= m <= k(n-1); the smallest such k decides where it may stand.
    """
    if any(m > max_block_size for m in sizes):
        return "undecided"
    f = []
    for m in sizes:
        k = 0 if m == 0 else -(-m // (n - 1))
        f.append(k if k <= S else None)
    f.sort(key=lambda v: (v is not None, -(v or 0)))
    ok = all(v is None or v > S - stage for stage, v in enumerate(f))
    return "certified" if ok else "refuted"


def _labeled_instance(rng, clock, n, S, labels, rows) -> CertifyInstance:
    X = np.zeros((labels.size, n))
    sizes = []
    for s in range(1, S + 1):
        idx = np.flatnonzero(labels == s)
        X[idx] = rows(idx.size)
        sizes.append(idx.size)
    model = _separating_params(rng, X, S)
    data = clock(simulate, model, X, Assignment(labels))
    return CertifyInstance(data, model, reference_verdict(sizes, n, S))


def _small_kind(n: int, weight: int) -> Kind:
    # the small random S=2 instances of the certificate-implies-uniqueness
    # suite (N uniform on 3n..10), with n fixed per kind: n=3 reports cost
    # about twice as much, so a random n would move the median with the
    # share of each n that a seed happens to draw
    sizes = list(range(3 * n, 11))

    def make(rng, clock):
        N = sizes[int(rng.integers(len(sizes)))]
        labels = rng.integers(1, 3, size=N)
        return _labeled_instance(rng, clock, n, 2, labels, lambda m: _generic_rows(rng, m, n))

    return Kind(f"small_n{n}", weight, make)


def _cluster_kind(n: int, S: int, m: int, weight: int, fanned: bool = False) -> Kind:
    def make(rng, clock):
        labels = rng.permutation(np.repeat(np.arange(1, S + 1), m))
        rows = (lambda k: _fanned_rows(rng, k)) if fanned else (lambda k: _generic_rows(rng, k, n))
        return _labeled_instance(rng, clock, n, S, labels, rows)

    return Kind(f"n{n}_S{S}_m{m}", weight, make)


class Certify(Workload):
    name = "certify"
    span = "pe.report"
    tail_pct = 95.0
    pool_rounds = 4

    def full_kinds(self):
        return [
            _small_kind(2, 16),
            _small_kind(3, 32),
            # 14-row clusters: the largest the partition search accepts
            _cluster_kind(4, 4, 14, 2),
            _cluster_kind(3, 6, 14, 2),
            # 400-row clusters: partition check undecided, genericity scan of
            # 2 * C(400, 2) = 159600 pairs against its 200000-subset guard
            _cluster_kind(2, 2, 400, 1, fanned=True),
        ]

    def tiny_kinds(self):
        return [
            _small_kind(2, 1),
            _small_kind(3, 1),
            _cluster_kind(3, 2, 6, 1),
            _cluster_kind(2, 2, 20, 1, fanned=True),
        ]

    def call(self, inst):
        return pe_report(inst.data, inst.model)

    @staticmethod
    def verdict(report) -> str:
        if report.undecided:
            return "undecided"
        return "certified" if report.certified else "refuted"

    def check(self, inst, out):
        got = self.verdict(out)
        return None if got == inst.verdict else f"verdict {got}, reference {inst.verdict}"

    def counts(self, inst, out):
        return {f"pe.{self.verdict(out)}": 1}


WORKLOADS = {w.name: w for w in (Fit, Select, Oracle, Certify)}
