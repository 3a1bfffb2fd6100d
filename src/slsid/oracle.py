"""Exhaustive ground truth on small instances.

Scans every split of the samples into at most S clusters, fits each
nonempty cluster by least squares, and reports the global minimum of the
hard-assignment objective together with all optimal solutions grouped into
classes under subsystem relabeling.  Splits are restricted-growth label
strings (the first sample is in cluster 1 and each later label is at most
one above the largest before it), which visit each relabeling class once.
They are scanned in fixed-size chunks: one matmul of the chunk's one-hot
memberships against the dataset's ``model.moment_table`` gives every
cluster's Gram and moment, ``model.gram_solve`` (the descent's Gram solve,
one batched eigendecomposition per chunk) gives the minimum-norm fits and
the Grams' singular values, and each assignment's objective is summed from
its explicit residuals.  A string within 1e-9 of the optimum keeps what
its chunk computed: the fits become the class parameters, the residual sum
its objective, and the singular values its rank flags.  Because the fits
are solved on the Gram, they agree with a per-cluster ``lstsq`` on the
rows to rounding, not bitwise.

On noise-free data the oracle also decides uniqueness: the solution is
unique (up to relabeling) when exactly one optimal class exists and it has
neither empty nor rank-deficient clusters; a rank-deficient optimal cluster
means an infinite family of parameter vectors fits it, which counts as
non-unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .model import Dataset, gram_solve, moment_table
from .partitions import gram_full_rank

DEFAULT_ENUM_LIMIT = 2_000_000
# absolute: an assignment this close to the global minimum is optimal
_OPTIMUM_TOL = 1e-9
# label strings per batched solve; sized for memory, not speed
_CHUNK = 1024


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive scan would exceed its configured limit."""


@dataclass(frozen=True)
class SolutionClass:
    """One equivalence class of optimal solutions under relabeling.

    ``labels`` is the canonical representative (subsystems renumbered in
    order of first appearance) and ``params`` the per-cluster least-squares
    fits in canonical order; :func:`same_param_set` compares banks without
    regard to order.
    """

    labels: tuple[int, ...]
    params: np.ndarray
    objective: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "params": [[float(v) for v in row] for row in self.params],
            "objective": self.objective,
            "degenerate": self.degenerate,
        }


def _rgs_chunks(N: int, S: int):
    """Restricted-growth label strings with at most S blocks, in chunks.

    Labels are 0-based.  Codes 0..S^(N-1)-1 are the digits of samples
    2..N, most significant first, so chunks come in ascending
    lexicographic order; a code is kept when each label is at most one
    above the largest label before it.
    """
    total = S ** (N - 1)
    place = S ** np.arange(N - 2, -1, -1)
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total))
        labels = np.zeros((codes.size, N), dtype=np.intp)
        labels[:, 1:] = codes[:, None] // place % S
        ceiling = np.maximum.accumulate(labels, axis=1)[:, :-1] + 1
        valid = (labels[:, 1:] <= ceiling).all(axis=1)
        if valid.any():
            yield labels[valid]


def oracle_global(
    data: Dataset, S: int, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[float, list[SolutionClass]]:
    """Global minimum of the hard-assignment objective and all optimal classes.

    Every assignment within 1e-9 (absolute) of the global minimum
    contributes one class; the classes are sorted by their canonical label
    sequence, and their ``degenerate`` flags come from
    ``partitions.gram_full_rank`` at its default tolerance.  Raises :class:`EnumerationLimitError` when S^N
    exceeds ``limit``.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    N, n = data.N, data.n
    total = S**N
    if total > limit:
        raise EnumerationLimitError(
            f"S^N = {total} exceeds the enumeration limit {limit}"
        )
    X, y = data.regressors, data.outputs
    table = moment_table(data).T
    clusters = np.arange(S)[:, None]

    best = np.inf
    # per chunk: objective, labels, fits and degenerate flags of the
    # strings within _OPTIMUM_TOL of the running best
    kept: list[tuple[np.ndarray, ...]] = []
    for labels in _rgs_chunks(N, S):
        member = (labels[:, None, :] == clusters).reshape(-1, N).astype(float)
        theta, svals = gram_solve((member @ table).reshape(len(labels), S, -1), n)
        # explicit residuals: y'y - m'theta would cancel on exact fits
        own = np.take_along_axis(theta, labels[..., None], axis=1)
        r = y - np.einsum("bkj,kj->bk", own, X)
        sse = np.einsum("bk,bk->b", r, r)
        if sse.min() < best:
            best = float(sse.min())
            kept = [tuple(a[c[0] <= best + _OPTIMUM_TOL] for a in c) for c in kept]
        near = sse <= best + _OPTIMUM_TOL
        # an empty cluster has a zero Gram, so it fits theta = 0 and fails
        # the rank test, which makes its class degenerate
        full = gram_full_rank(svals[near].reshape(-1, n), n)
        degenerate = ~full.reshape(-1, S).all(axis=1)
        kept.append((sse[near], labels[near], theta[near], degenerate))

    # restricted-growth strings are canonical and scanned in ascending
    # order, so every kept string is its own class, already sorted
    classes = [
        SolutionClass(tuple(canon.tolist()), params, float(obj), bool(flag))
        for objectives, labs, thetas, flags in kept
        for obj, canon, params, flag in zip(objectives, labs + 1, thetas, flags)
    ]
    return best, classes


def unique_optimum(classes: list[SolutionClass]) -> bool:
    """Whether the optimal classes are a single well-posed one."""
    return len(classes) == 1 and not classes[0].degenerate


def same_param_set(A: np.ndarray, B: np.ndarray, atol: float = 1e-7) -> bool:
    """Whether two parameter banks coincide as sets, entrywise within atol."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.shape != B.shape:
        return False
    return any(
        np.allclose(A[list(perm)], B, atol=atol, rtol=0.0)
        for perm in permutations(range(A.shape[0]))
    )
