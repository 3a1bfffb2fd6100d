"""Core domain types, data simulation, and objective evaluation.

A switched-linear regression produces each output y_k from one of S linear
subsystems: y_k = x_k . theta_{z_k} + e_k, where z_k is the per-sample
subsystem label.  This module holds the value types (dataset, parameter
bank, label sequence, noise description), the residual matrix and the
hard-assignment objective.  The paper's penalty relaxation over fractional
memberships has the same minimizers, so no fractional membership type is
needed.  Least squares runs on sufficient statistics: ``moment_table``
holds each sample's x x^T (upper triangle) and x y, and ``gram_solve``
solves a whole stack of cluster Gram matrices with one batched symmetric
eigendecomposition, giving minimum-norm fits and the singular values for
the rank test; its Grams are gathered whole, both triangles, in one
``take``.  The eigenvalues come in ascending order, so the largest
magnitude is at one end, and the singular values in descending order are
the magnitudes reversed, except in a Gram whose smallest eigenvalue
rounded below zero: only those rows are sorted.  No max or sort runs over
a whole stack's short n axis, and the results are those of a max and a
sort.  At n = 2 a stack of at least ``_EIGH2_MIN`` Grams (the
oracle's chunks, never the descent's batches) is solved in one pass by
``_solve2``: a vectorized port of LAPACK's closed-form 2 x 2 arithmetic
(``dsyevd`` through ``dsteqr`` and ``dlaev2``) gives the two eigenpairs,
and the fits and singular values follow from them in the einsums' order
of operations, with no eigenvector matrix and no sort, bit for bit those
of the ``eigh`` path.  It runs only on Grams well inside the region
where LAPACK reaches ``dlaev2``'s positive-trace branch: positive
diagonal entries, an off-diagonal entry far above ``dsteqr``'s split
tests, a largest entry that LAPACK does not rescale (about [1.2e-122,
1e146]), and a smaller eigenvalue no larger in magnitude than the
larger.  An empty cluster's zero Gram gets a zero fit and zero singular
values, as ``eigh`` gives it, and every other Gram takes the ``eigh``
path within the same call.  So the path changes the speed, never a
result.
``fit_members`` is the one cluster fit built on the two: matmuls with a
stack of one-hot memberships sum the table per cluster, and
``gram_solve`` solves the sums.  The descent, its empty-cluster repair and
the exact oracle all fit through it.  The fits agree with a per-cluster
``lstsq`` on the rows to rounding, not bitwise, where the Gram has full
rank.

A Gram squares the condition number of its cluster's rows, so on rows of
widely different scales its solve can miss the least-squares fit by far.
The exact-fit rule decides where it is trusted, at ``GRAM_RTOL``, the
tolerance of ``partitions.gram_full_rank``: a cluster of m >= 2 members
whose Gram has fewer than min(m, n) singular values above ``GRAM_RTOL``
times its largest is refitted by ``np.linalg.lstsq`` on its own rows.
With at least n members that is a cluster failing ``gram_full_rank``;
with fewer, it is one whose rows the Gram cannot tell apart, such as two
rows 10^12 apart in scale.  A single row fits exactly from its Gram.  ``fit_members`` applies the rule when it is given the
rows, as the descent's group step, its empty-cluster repair and the
oracle's full strings give them, and returns the ``gram_full_rank`` flags.
The oracle's prefix bounds take no rows: they count only clusters that
pass the rank test.

The sums run in blocks of ``_SUM_BLOCK // T`` samples, T the table's row
count, one matmul per block, added in order.  The OpenBLAS that numpy
bundles packs both operands of a GEMM above about 10^6 multiply-adds: on
one Xeon core, for T in {9, 20, 35} and S in {2, 4, 8}, a table entry cost
0.3-0.8 ns at 0.5-0.9 * 10^6 multiply-adds and 1.1-1.9 ns at 1.1-2 * 10^6.
At ``_SUM_BLOCK`` = 2^17 entries a block's table slice is 1 MiB and a
block's matmul stays below 10^6 multiply-adds for up to 7 clusters.  The
block depends on T and the sample count alone, never on the stack size,
so a slice's sums are the same alone as in any stack.  A call whose
samples fit in one block is a single matmul, so only calls that reach a
second block sum in another order than one matmul over all samples, and
can differ from it in the last bits.

Each input rule is stated once, and every entry point calls it.
``_count`` makes a count (n, S, N, a restart, iteration, trial or
repetition count, a node budget) an int through ``operator.index`` and
checks its bounds: a float or a string is a TypeError, a value below its
lower bound or above ``np.iinfo(np.intp).max`` a ValueError, both naming
the field.  ``_seed`` does the same for a seed, None or at least 0, with
no upper bound, as numpy's generators take seeds of any size.
``Assignment.validate`` checks one label per sample, and no label above S
where S is known.  ``_need_samples`` checks S <= N.

Conventions: regressors are stored row-major (one sample per row), labels
are 1-based everywhere they are exposed, and all types are immutable after
construction.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .partitions import GRAM_RTOL, gram_full_rank


def _index(name: str, value) -> int:
    """``value`` as an int through ``operator.index``: numpy integers pass
    and True is 1, but a float or a string is a TypeError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


# the largest count: numpy cannot size or index an array past it
_COUNT_MAX = int(np.iinfo(np.intp).max)


def _count(name: str, value, least: int | None = None) -> int:
    """``value`` as an int through :func:`_index`; a value below ``least``
    or above ``_COUNT_MAX`` is a ValueError naming ``name``."""
    value = _index(name, value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value > _COUNT_MAX:
        raise ValueError(f"{name} must be <= {_COUNT_MAX}, got {value}")
    return value


def _need_samples(S: int, N: int, name: str = "S") -> None:
    """Reject S subsystems on fewer than S samples, the one rule of every
    solver: with S > N some cluster is empty in every assignment.  ``name``
    is the field the message gives S under, such as ``S_bar``."""
    if N < S:
        raise ValueError(f"need at least {name}={S} samples, got N={N}")


def _seed(value) -> int | None:
    """A seed: None, or a nonnegative int through :func:`_index`, of any
    size; a float is a TypeError and a negative value a ValueError, both
    naming it."""
    if value is None:
        return None
    value = _index("seed", value)
    if value < 0:
        raise ValueError(f"seed must be None or >= 0, got {value}")
    return value


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be nonempty, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Assignment:
    """Per-sample subsystem labels, values in {1, ..., S}.

    Floating-point labels are accepted only when every value is a whole
    number; a fractional or non-finite one raises ValueError rather than
    being truncated.
    """

    labels: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.labels)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("labels must be a nonempty 1-D integer array")
        if values.dtype.kind == "f" and not (
            np.isfinite(values).all() and (values == np.round(values)).all()
        ):
            raise ValueError("labels must be whole numbers, not fractional or non-finite")
        labels = values.astype(int, copy=False)
        if labels.min() < 1:
            raise ValueError("labels are 1-based; smallest allowed label is 1")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.labels.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def indices_of(self, s: int) -> np.ndarray:
        """0-based positions of the samples assigned to subsystem ``s``."""
        return np.flatnonzero(self.labels == s)

    def cluster_sizes(self, S: int) -> tuple[int, ...]:
        return tuple(int(np.count_nonzero(self.labels == s)) for s in range(1, S + 1))

    def validate(self, N: int, S: int | None = None) -> None:
        """Raise ValueError unless there are N labels, and, when S is
        given, none above S."""
        if len(self) != N:
            raise ValueError(f"assignment has {len(self)} labels for {N} samples")
        if S is None:
            return
        top = int(self.labels.max())
        if top > S:
            raise ValueError(f"assignment uses label {top}, above S={S}")


@dataclass(frozen=True)
class SLModel:
    """Bank of S subsystem parameter vectors, one row per subsystem."""

    params: np.ndarray

    def __post_init__(self):
        params = _as_matrix(self.params, "params")
        finite = np.isfinite(params).all(axis=1)
        if not finite.all():
            s = int(np.argmin(finite))
            raise ValueError(
                f"params row {s + 1} (1-based) holds a NaN or infinite value"
            )
        object.__setattr__(self, "params", params)

    @property
    def S(self) -> int:
        return self.params.shape[0]

    @property
    def n(self) -> int:
        return self.params.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive output noise; ``sigma`` is finite and nonnegative, and zero
    exactly when ``kind`` is "none", and ``seed`` is a seed (module
    docstring)."""

    kind: str = "none"
    sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        # chained comparison is False for NaN, so NaN is rejected too
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if (self.sigma == 0.0) != (self.kind == "none"):
            raise ValueError("sigma must be 0 exactly when kind is 'none'")
        object.__setattr__(self, "seed", _seed(self.seed))


def _noise(sigma: float) -> NoiseSpec:
    """The output noise of a sweep's ``sigma``: none at 0, else gaussian,
    so ``NoiseSpec`` rejects a negative, infinite or NaN value."""
    return NoiseSpec() if sigma == 0 else NoiseSpec("gaussian", sigma)


@dataclass(frozen=True)
class Dataset:
    """Regressor rows, outputs, and (optionally) the true label sequence.

    NaN and infinite values are rejected, and so are regressors or outputs
    whose sum of squares overflows."""

    regressors: np.ndarray
    outputs: np.ndarray
    truth: Assignment | None = None

    def __post_init__(self):
        regressors = _as_matrix(self.regressors, "regressors")
        outputs = np.asarray(self.outputs, dtype=float)
        if outputs.ndim != 1:
            raise ValueError("outputs must be 1-D")
        if outputs.size != regressors.shape[0]:
            raise ValueError(
                f"outputs length {outputs.size} does not match "
                f"{regressors.shape[0]} regressor rows"
            )
        finite = np.isfinite(regressors)
        if not (finite.all() and np.isfinite(outputs).all()):
            k = int(np.argmin(finite.all(axis=1) & np.isfinite(outputs)))
            raise ValueError(f"sample {k + 1} (1-based) holds a NaN or infinite value")
        # every solver squares the data
        for name, values in (("regressors", regressors), ("outputs", outputs)):
            if not np.isfinite(np.vdot(values, values)):
                raise ValueError(f"the sum of squares of the {name} overflows; rescale them")
        if self.truth is not None:
            self.truth.validate(regressors.shape[0])
        object.__setattr__(self, "regressors", regressors)
        object.__setattr__(self, "outputs", outputs)

    @property
    def N(self) -> int:
        return self.regressors.shape[0]

    @property
    def n(self) -> int:
        return self.regressors.shape[1]


def _check_pair(data: Dataset, model: SLModel) -> None:
    if data.n != model.n:
        raise ValueError(f"model has n={model.n} but the dataset has n={data.n}")


def residual_matrix(data: Dataset, model: SLModel) -> np.ndarray:
    """S x N matrix of residuals y_k - x_k . theta_s."""
    _check_pair(data, model)
    return data.outputs[None, :] - model.params @ data.regressors.T


def simulate(
    model: SLModel,
    regressors,
    switching: Assignment,
    noise: NoiseSpec = NoiseSpec(),
) -> Dataset:
    """Generate outputs from a known model and switching sequence.

    Outputs are x_k . theta_{z_k} plus noise drawn per ``noise``; the
    returned dataset carries ``switching`` as its truth labels.  With a
    gaussian spec the draw is deterministic given ``noise.seed``.
    """
    regressors = _as_matrix(regressors, "regressors")
    if regressors.shape[1] != model.n:
        raise ValueError(
            f"regressor dimension {regressors.shape[1]} does not match model "
            f"dimension {model.n}"
        )
    switching.validate(regressors.shape[0], model.S)
    # same computation as residual_matrix, so noise-free truth residuals are
    # exactly zero bit for bit
    preds = model.params @ regressors.T
    y = preds[switching.labels - 1, np.arange(regressors.shape[0])]
    if noise.kind == "gaussian":
        rng = np.random.default_rng(noise.seed)
        y = y + rng.normal(0.0, noise.sigma, size=y.size)
    return Dataset(regressors, y, truth=switching)


def generate_random_scenario(
    n: int,
    S: int,
    N: int,
    param_range: tuple[float, float] = (-5.0, 5.0),
    noise: NoiseSpec = NoiseSpec(),
    seed: int | None = 0,
) -> tuple[SLModel, Dataset]:
    """Draw a random model and dataset, reproducibly from ``seed``.

    Parameter and regressor entries are iid uniform on ``param_range`` and
    labels iid uniform on {1, ..., S}.  When the noise spec carries no seed
    of its own, one is derived from ``seed`` so the whole scenario is a
    function of a single integer.  ``n``, ``S`` and ``N`` are counts of
    at least 1 (module docstring).
    """
    n, S, N, seed = _count("n", n, 1), _count("S", S, 1), _count("N", N, 1), _seed(seed)
    lo, hi = float(param_range[0]), float(param_range[1])
    # a width that overflows makes numpy's uniform draw raise
    if not np.isfinite(hi - lo):
        raise ValueError(f"param_range ({lo}, {hi}) must have a finite width")
    if not lo < hi:
        raise ValueError(f"param_range ({lo}, {hi}) is an empty interval")
    rng = np.random.default_rng(seed)
    params = rng.uniform(lo, hi, size=(S, n))
    regressors = rng.uniform(lo, hi, size=(N, n))
    labels = rng.integers(1, S + 1, size=N)
    if noise.kind == "gaussian" and noise.seed is None:
        noise = NoiseSpec("gaussian", noise.sigma, seed=int(rng.integers(2**63)))
    model = SLModel(params)
    data = simulate(model, regressors, Assignment(labels), noise)
    return model, data


def _draw_trial(
    n: int, S: int, N: int, sigma: float, entropy: int | None, spawn_key: tuple
) -> tuple[SLModel, Dataset, int]:
    """One Monte-Carlo trial of a sweep: the scenario drawn on the default
    parameter range from the data seed that ``SeedSequence(entropy,
    spawn_key)`` derives, and the seed of the trial's solver, one past the
    data seed."""
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    data_seed = int(ss.generate_state(1)[0])
    model, data = generate_random_scenario(n, S, N, noise=_noise(sigma), seed=data_seed)
    return model, data, data_seed + 1


def _upper_triangle(n: int) -> tuple[list[int], list[int]]:
    """Row and column indices of an n x n upper triangle, row by row."""
    # as np.triu_indices, without its cost on every half-step
    rows = [i for i in range(n) for _ in range(i, n)]
    cols = [j for i in range(n) for j in range(i, n)]
    return rows, cols


def moment_table(data: Dataset) -> np.ndarray:
    """Per-sample least-squares moments, one column per sample.

    The first n(n+1)/2 rows hold the upper triangle of x_k x_k^T, row by
    row, the last n rows x_k y_k.  Summing the columns of a cluster (one
    matmul with its membership row) gives its Gram matrix and moment
    vector.
    """
    X, y = data.regressors, data.outputs
    n = data.n
    rows, cols = _upper_triangle(n)
    table = np.empty((len(rows) + n, data.N))
    # one row at a time, so no N x n^2 temporary
    for t, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(X[:, i], X[:, j], out=table[t])
    np.multiply(X.T, y, out=table[len(rows) :])
    return table


# LAPACK's machine constants (DLAMCH): eps is the unit roundoff, safmin
# the smallest normal double
_EPS = 2.0**-53
_SAFMIN = 2.0**-1022
# A 2 x 2 symmetric matrix is eigendecomposed without rescaling when its
# largest entry is zero or lies in [_SSFMIN, _RMAX]: dsteqr rescales a block
# below SSFMIN = sqrt(safmin) / eps^2, dsyevd a matrix above RMAX =
# sqrt(2 * eps / safmin) (its own lower limit, RMIN = 1 / RMAX, is below
# SSFMIN)
_SSFMIN = np.sqrt(_SAFMIN) / _EPS**2
_RMAX = np.sqrt(2 * _EPS / _SAFMIN)
# numpy's machine epsilon, twice LAPACK's eps: lstsq's cutoff for an n x n
# system is n * _MACHEPS times the largest singular value
_MACHEPS = 2 * _EPS
# _solve2 runs dlaev2 only where |b| > _OFFDIAG_RTOL * (a + c) with a, c > 0,
# 18 times dsteqr's split tests, |b| <= eps sqrt(a) sqrt(c) and
# b^2 <= eps^2 a c + safmin, since eps sqrt(a c) <= 2^-54 (a + c) and safmin
# is negligible against an unscaled Gram
_OFFDIAG_RTOL = 1e-15
# _solve2's nine stack-sized buffers: one workspace per thread, kept between
# calls and grown to the largest stack solved, 72 bytes per Gram (an oracle
# chunk holds at most 1024 S Grams).  No call reads what an earlier call
# left in it.  Fresh buffers on every call let the C allocator trim the heap
# between the oracle's chunks and fault the pages in again: 14-64 minor
# faults per oracle_global call over the oracle benchmark's pools (seeds 1
# and 4242, warm), against 0.0-0.5 with the kept workspace
_WORKSPACE = threading.local()
# stacks of 2 x 2 Grams from which _solve2 is faster than the eigh path.
# Swept over 16..128 Grams on one x86-64 core of a shared machine, four runs
# per size, on oracle-like stacks.  The fastest _solve2 run took 42-44 us at
# every size; eigh's took 27 us at 16 Grams, 43 us at 48, 47 us at 56 and
# 52 us at 64.  eigh won every run up to 48, _solve2 three of four at 52-64
# and every run from 80.  The descent's n = 2 stacks (at most 44 Grams) stay
# with eigh
_EIGH2_MIN = 56
# fit_members sums the moment table in blocks of this many entries, T rows
# times _SUM_BLOCK // T samples.  Swept over 2**14..2**19 on one Xeon core:
# at (n, S, N) = (5, 4, 20000), (8, 3, 30000) and (5, 4, 100000),
# fit_members was fastest at 2**16..2**17, and 2**18 lost most of the gain
# at n = 5, where T = 20 and a block's matmul passes 10**6 multiply-adds
# at S = 4
_SUM_BLOCK = 2**17


@functools.cache
def _gram_index(n: int) -> np.ndarray:
    """n x n positions in a moment-table column of a Gram's entries: (i, j)
    and (j, i) both hold the position of the upper-triangle entry.  Cached,
    so read-only."""
    rows, cols = _upper_triangle(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = range(len(rows))
    index.flags.writeable = False
    return index


def _solve_eigh(sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gram_solve` by ``np.linalg.eigh``, for any n.

    The Grams are gathered whole, both triangles, in one ``take``;
    ``eigh(UPLO="U")`` reads only the upper one.
    """
    tri = n * (n + 1) // 2
    w, V = np.linalg.eigh(sums.take(_gram_index(n), axis=-1), UPLO="U")
    # |w| in descending order where no eigenvalue rounded below zero
    svals = np.abs(w[..., ::-1])
    top = np.maximum(svals[..., :1], svals[..., -1:])
    keep = svals[..., ::-1] > n * _MACHEPS * top
    inv = np.divide(1.0, w, out=np.zeros(w.shape), where=keep)
    coef = inv * np.einsum("...ji,...j->...i", V, sums[..., tri:])
    theta = np.einsum("...ij,...j->...i", V, coef)
    if w[..., 0].min() < 0:
        low = w[..., 0] < 0
        svals[low] = -np.sort(-svals[low], axis=-1)
    return theta, svals


def _solve2(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_solve_eigh` of a stack of n = 2 sums, bit for bit, by
    LAPACK's closed form, without building eigenvectors.

    At n = 2 ``dsyevd`` reduces to ``dsteqr`` on the matrix [[a, b], [b, c]]
    itself: a split test for a negligible b, else ``dlaev2``'s eigenvalues
    rt1, rt2 and its rotation (cs1, sn1) of the identity.  This pass runs
    ``dlaev2``'s arithmetic, vectorized in LAPACK's order of operations,
    only on the Grams of its domain: a > 0 and c > 0, so a + c > 0 and
    ``dlaev2`` takes its one positive-trace branch; |b| > ``_OFFDIAG_RTOL``
    (a + c), far above both split tests; a largest entry in [``_SSFMIN``,
    ``_RMAX``], which LAPACK does not rescale; and |rt2| <= rt1.  There the
    two eigenpairs are (rt1, (cs1, sn1)) and (rt2, (-sn1, cs1)), the
    singular values are rt1 and |rt2| in that order, rt1 passes lstsq's
    cutoff, and each pair's term of theta is formed in the einsums' order,
    (v0 m0 + v1 m1), times 1 / w, times v.  IEEE addition commutes, so
    adding the two terms needs no ascending swap.  The einsums sum from
    +0.0, which only turns a zero sum's -0.0 into +0.0: adding 0.0 to
    theta does the same, and the sign of a zero before it never reaches
    theta.  An empty cluster's zero Gram gets the zero fit and zero
    singular values that ``eigh`` gives it, and every other Gram (split,
    non-positive diagonal or rescaled) goes to :func:`_solve_eigh` within
    the same call.  The temporaries live in the nine stack-sized
    buffers of the thread's ``_WORKSPACE``, written through ``out=``.
    """
    a, b, c, m0, m1 = (sums[..., k] for k in range(5))
    shape = sums.shape[:-1]
    theta = np.empty(shape + (2,))
    svals = np.empty_like(theta)
    size = 9 * a.size
    work = getattr(_WORKSPACE, "buffer", None)
    if work is None or work.size < size:
        work = _WORKSPACE.buffer = np.empty(size)
    acmn, acmx, sm, df, tb, atb, rt1, rt2, x = work[:size].reshape((9,) + shape)
    # rows outside the domain may divide by zero or overflow; eigh replaces them
    with np.errstate(all="ignore"):
        np.minimum(a, c, out=acmn)
        np.maximum(a, c, out=acmx)
        np.abs(b, out=x)
        np.maximum(acmx, x, out=x)
        inside = (acmn > 0) & (x >= _SSFMIN) & (x <= _RMAX)
        np.add(a, c, out=sm)
        np.subtract(a, c, out=df)
        np.add(b, b, out=tb)
        np.abs(tb, out=atb)
        # |b| > rtol (a + c), on 2 |b| = |tb| and 2 (a + c), both exact
        inside &= atb > np.multiply(sm, 2 * _OFFDIAG_RTOL, out=x)
        # rt = hi sqrt(1 + (lo / hi)^2), hi and lo the larger and the
        # smaller of |df| and |tb|; rt1 = (sm + rt) / 2
        np.abs(df, out=x)
        np.maximum(x, atb, out=rt2)
        np.minimum(x, atb, out=x)
        np.divide(x, rt2, out=x)
        np.multiply(x, x, out=x)
        np.add(x, 1.0, out=x)
        np.sqrt(x, out=x)
        np.multiply(rt2, x, out=x)
        np.add(sm, x, out=rt1)
        np.multiply(rt1, 0.5, out=rt1)
        # rt2 = (acmx / rt1) acmn - (b / rt1) b, acmx and acmn the diagonal
        # entries of larger and smaller magnitude
        np.divide(acmx, rt1, out=acmx)
        np.multiply(acmx, acmn, out=rt2)
        np.divide(b, rt1, out=acmx)
        np.multiply(acmx, b, out=acmx)
        np.subtract(rt2, acmx, out=rt2)
        # cs = df + rt where df >= 0, else df - rt (df = a - c is never -0.0
        # where a, c > 0)
        pos = df >= 0
        np.copysign(x, df, out=x)
        np.add(df, x, out=df)
        first = np.abs(df, out=x) > atb
        # t = -tb / cs where |cs| > |tb|, else -cs / tb; u = 1 / sqrt(1 + t^2)
        # and v = t u, and (cs1, sn1) = (v, u) where |cs| > |tb|, else (u, v)
        np.divide(np.where(first, tb, df), np.where(first, df, tb), out=x)
        np.negative(x, out=x)
        np.multiply(x, x, out=acmn)
        np.add(acmn, 1.0, out=acmn)
        np.sqrt(acmn, out=acmn)
        np.divide(1.0, acmn, out=acmn)
        np.multiply(x, acmn, out=x)
        # then (-sn1, cs1) where df >= 0, the sign of the trace (dlaev2's
        # sgn1 = sgn2)
        first ^= pos
        cs1 = np.where(first, x, acmn)
        sn1 = np.where(first, acmn, x)
        cs1 = np.where(pos, np.negative(cs1, out=x), cs1)
        # coef1 = (1 / rt1) (cs1 m0 + sn1 m1); coef2 = (cs1 m1 - sn1 m0) times
        # 1 / rt2, or 0 where |rt2| is at or below lstsq's cutoff, 2 eps rt1
        np.multiply(cs1, m0, out=sm)
        np.multiply(sn1, m1, out=df)
        np.add(sm, df, out=sm)
        np.divide(1.0, rt1, out=df)
        np.multiply(df, sm, out=sm)
        np.multiply(cs1, m1, out=df)
        np.multiply(sn1, m0, out=tb)
        np.subtract(df, tb, out=df)
        # acmx = |rt2|, the smaller singular value
        np.abs(rt2, out=acmx)
        inside &= acmx <= rt1
        keep = acmx > np.multiply(rt1, 2 * _MACHEPS, out=atb)
        np.divide(1.0, rt2, out=tb)
        np.multiply(np.where(keep, tb, 0.0), df, out=df)
        # theta = cs1 coef1 - sn1 coef2, sn1 coef1 + cs1 coef2
        np.multiply(cs1, sm, out=tb)
        np.multiply(sn1, df, out=atb)
        np.subtract(tb, atb, out=theta[..., 0])
        np.multiply(sn1, sm, out=tb)
        np.multiply(cs1, df, out=atb)
        np.add(tb, atb, out=theta[..., 1])
    theta += 0.0
    svals[..., 0] = rt1
    svals[..., 1] = acmx
    if not inside.all():
        rest = np.flatnonzero(~inside)
        part = sums.reshape(-1, 5)[rest]
        # an empty cluster's Gram is zero, and eigh gives it a zero fit and
        # zero singular values
        zero = ~part[:, :3].any(axis=1)
        theta.reshape(-1, 2)[rest[zero]] = svals.reshape(-1, 2)[rest[zero]] = 0.0
        if not zero.all():
            rest, part = rest[~zero], part[~zero]
            theta.reshape(-1, 2)[rest], svals.reshape(-1, 2)[rest] = _solve_eigh(part, 2)
    return theta, svals


def gram_solve(sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares fits from summed moment-table columns.

    ``sums[..., :]`` is one cluster's sum of :func:`moment_table` columns,
    with clusters stacked along the leading axes.  One batched symmetric
    eigendecomposition of the Gram matrices gives both the fits and, in
    descending order, the Grams' singular values for
    ``partitions.gram_full_rank``.  Eigenvalues at or below n * eps times the
    largest are dropped, lstsq's default cutoff for an n x n system, so a
    rank-deficient or empty (zero) Gram gets its minimum-norm solution.
    ``eigh`` returns the eigenvalues w in ascending order, so the largest
    |w| is the larger of the two ends, and |w| reversed is in descending
    order unless the smallest w rounded below zero; only those Grams'
    values are sorted, so the result is the sort's, bit for bit.

    The decomposition is ``np.linalg.eigh`` (LAPACK's ``dsyevd``), except
    for a stack of at least ``_EIGH2_MIN`` 2 x 2 Grams, which takes the
    same bits from :func:`_solve2`: one pass of LAPACK's closed-form 2 x 2
    arithmetic straight to the fits and singular values, with no
    eigenvector matrix, on the Grams of its domain (positive diagonal, an
    off-diagonal entry above ``_OFFDIAG_RTOL`` times the trace, a largest
    entry in [``_SSFMIN``, ``_RMAX``], about [1.2e-122, 1e146], that LAPACK
    does not rescale).  Zero Grams get zeros and the other Grams stay with
    ``eigh``.  So the results do not depend on the size of the stack.
    """
    if n == 2 and sums[..., 0].size >= _EIGH2_MIN:
        return _solve2(sums)
    return _solve_eigh(sums, n)


def fit_members(
    table: np.ndarray, member: np.ndarray, n: int, data: Dataset | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of clusters given by float one-hot memberships,
    and their rank flags.

    ``member[..., s, k]`` is 1.0 when sample k of the first
    ``member.shape[-1]`` is in cluster s, with stacks along leading axes;
    ``table`` is the dataset's :func:`moment_table`.  The table is summed
    per cluster in blocks of ``_SUM_BLOCK // T`` samples (T the table's
    row count), one matmul per block and 2-D slice, added in order, so a
    slice gets the same bits alone as in any stack.  A call whose samples
    fit in one block is a single matmul; a longer one can differ from a
    single matmul over all its samples in the last bits.  :func:`gram_solve`
    solves the sums, and a cluster's flag is ``partitions.gram_full_rank``
    of its singular values.  When ``data``, the dataset the table was built
    from, is passed, the exact-fit rule (module docstring) refits, among
    the clusters of at least two members whose flag is False, each whose
    Gram rank is below its member count or n, with ``np.linalg.lstsq`` on
    its own rows.  An empty cluster's fit is zero and its flag False.
    """
    length = member.shape[-1]
    table = table[:, :length]
    block = max(1, _SUM_BLOCK // table.shape[0])
    swapped = np.swapaxes(member, -1, -2)
    sums = table[:, :block] @ swapped[..., :block, :]
    for start in range(block, length, block):
        sums += table[:, start : start + block] @ swapped[..., start : start + block, :]
    theta, svals = gram_solve(np.swapaxes(sums, -1, -2), n)
    full = gram_full_rank(svals.reshape(-1, n), n)
    if data is not None and not full.all():
        rows = member.reshape(-1, length)
        deficient = np.flatnonzero(~full)
        sizes = rows[deficient] @ np.ones(length)
        # one row fits exactly from its Gram; with m >= 2 rows, a deficient
        # Gram's rank is below n, so below min(m, n) exactly when below m
        many = sizes >= 2
        if many.any():
            deficient, sizes = deficient[many], sizes[many]
            values = svals.reshape(-1, n)[deficient]
            rank = (values > GRAM_RTOL * values[:, :1]).sum(axis=1)
            flat = theta.reshape(-1, n)
            X, y = data.regressors[:length], data.outputs[:length]
            for i in deficient[rank < sizes].tolist():
                own = rows[i] > 0
                flat[i] = np.linalg.lstsq(X[own], y[own], rcond=None)[0]
            theta = flat.reshape(theta.shape)
    return theta, full.reshape(svals.shape[:-1])


def objective_integer(data: Dataset, model: SLModel, a: Assignment) -> float:
    """Sum of squared residuals under a hard assignment.

    Each term is taken from :func:`residual_matrix`, as the descent's
    objectives are, so the two agree bit for bit.
    """
    _check_pair(data, model)
    a.validate(data.N, model.S)
    r = residual_matrix(data, model)[a.labels - 1, np.arange(data.N)]
    return float(np.sum(r * r))
