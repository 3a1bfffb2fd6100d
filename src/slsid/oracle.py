"""Exact ground truth on small instances.

Finds the global minimum of the hard-assignment objective over every split
of the samples into at most S clusters, with each nonempty cluster fitted
by least squares, and all optimal solutions grouped into classes under
subsystem relabeling.  Splits are restricted-growth label strings (the
first sample is in cluster 1 and each later label is at most one above the
largest before it), which visit each relabeling class once.  As for the
descent, S may not exceed N (``model._need_samples``).

The search is a branch-and-bound over string prefixes, the labels of the
first samples.  Adding a sample never lowers a cluster's least-squares
SSE, so the SSE of a prefix bounds the objective of every string that
extends it.  A pass with an upper bound U extends the surviving prefixes
length by length, ``_STEP`` samples at a time up to the last bounded
length N - ``_STEP``, and drops a prefix whose bound exceeds U + 1e-9 by
more than a rounding margin; the surviving full strings are scored last.
Whenever a pass scores a full string whose SSE is below U, U falls to
that SSE (the incumbent), which is at least the optimum.
Only restricted-growth children are built, one label at a time: a string
whose largest label is t gets the labels 0, ..., min(t + 1, S - 1), so a
prefix's children come in ascending order, at most ``_CHUNK`` to a chunk.
With one cluster the pass starts from its one string, all zeros, and
builds no child.  The pass is one loop over per-length queues of kept
prefixes not yet extended.  Each step extends a group of
max(1, ``_CHUNK`` // S**``_STEP``) parents, about a chunk of children,
taken from the deepest queue that holds a full group, or else the rest of
the shortest non-empty queue, which nothing shorter is left to feed.  A
group is the next run of its queue, so the full strings still come in
restricted-growth order; memory stays at about one group plus one chunk
per length, never a whole level, and Python's frame depth does not grow
with N.  Every optimal class is kept.  While U is at least the optimum,
no prefix of a string within 1e-9 of the optimum is dropped, so the
optimum and the classes are bit for bit those of a scan of every string,
which is what a pass is when U is infinite or when it drops nothing.

U comes from up to three sources, in this order:

1. The first pass guesses U at the rounding margin, ``_PRUNE_RTOL`` times
   y'y, which holds on data that some split fits exactly.  If it keeps a
   full string whose SSE is at most the guess, U is at least that SSE and
   so at least the optimum: the pass was exact and its result is final.
   Noise-free data needs no descent.
2. Otherwise, when the first pass dropped a prefix, a second pass runs.
   Its U is the SSE of the best full string the first pass kept, the
   objective of a split and so at least the optimum.
3. When the first pass kept no string (on noisy data it builds only its
   head, the prefixes whose clusters all fit within the guess), U is the
   objective of one string, the labels of a default ``bcd.bcd_solve`` run
   with S subsystems, scored as the pass scores strings; when the
   descent raises ``SolverFailure`` (every restart degenerated), U is
   infinite and the second pass is the scan.

A first pass that drops nothing is the scan, and the only pass; with
all-zero outputs no length can be bounded, so none is scored.  The node
budget counts the prefixes and strings of every pass, not the descent.

Prefixes and strings are scored in fixed-size chunks: one
``model.fit_members`` call on the chunk's one-hot memberships (the
descent's cluster fit: one matmul against the dataset's
``model.moment_table`` and one batched eigendecomposition; at n = 2 a
chunk of at least ``model._EIGH2_MIN`` Grams is solved in one pass of
LAPACK's closed-form 2 x 2 arithmetic, with no eigenvector matrix, on
the Grams whose off-diagonal entry is far from negligible and which LAPACK
does not rescale, which gives the ``eigh`` path's bits faster) gives the
minimum-norm fits and the clusters' ``model.gram_full_rank`` flags,
and SSEs are summed from explicit residuals.  Full strings pass the rows
too, so the exact-fit rule (``model`` docstring) refits their
ill-conditioned clusters on the rows.
A prefix's bound counts only its clusters whose flag is set: a
rank-deficient or empty cluster's rounded fit is not trusted, so it adds
0, the least an SSE can be.  The rounding margin is ``_PRUNE_RTOL`` times
y'y, the SSE of theta = 0; over 400 random instances (noisy, planted,
near-collinear, repeated and widely scaled rows) no bound exceeded the SSE
of a string extending its prefix by more than 2e-16 times y'y.  Every
chunk of a call writes its memberships into one buffer, grown to the
largest chunk.

A string within 1e-9 of the optimum keeps what its chunk computed: the
fits become the class parameters, the residual sum its objective, and the
rank flags its degenerate flag.  The fits agree with a per-cluster
``lstsq`` on the rows to rounding, not bitwise, except where the rule
refitted a cluster with ``lstsq`` itself.  The classes stay in those
per-chunk arrays, in a read-only sequence that builds a
:class:`SolutionClass` only when an index is read, so a caller that reads
the count and the first class (as :func:`unique_optimum` does) builds one
object, not one per optimal string.  A chunk whose strings are all within
1e-9 of the running best is kept as computed, without a copy.  Each
optimal class holds N + 8*S*n + 9 bytes: its labels (one byte each
while S < 256), its fits, its objective and its flag.

On noise-free data the oracle also decides uniqueness: the solution is
unique (up to relabeling) when exactly one optimal class exists and it has
neither empty nor rank-deficient clusters; a rank-deficient optimal cluster
means an infinite family of parameter vectors fits it, which counts as
non-unique.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, permutations

import numpy as np

from .bcd import SolverConfig, SolverFailure, bcd_solve
from .model import Dataset, _count, _need_samples, fit_members, moment_table

DEFAULT_ENUM_LIMIT = 2_000_000
# absolute: an assignment this close to the global minimum is optimal
_OPTIMUM_TOL = 1e-9
# label strings per batched solve; sized for memory, not speed
_CHUNK = 1024
# samples the pass adds to every surviving prefix per batch
_STEP = 2
# rounding margin of a prefix bound, relative to y'y
_PRUNE_RTOL = 1e-8


class EnumerationLimitError(RuntimeError):
    """Raised when the exact search would build more nodes than its limit."""


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
            "params": self.params.tolist(),
            "objective": self.objective,
            "degenerate": self.degenerate,
        }


class _Classes(Sequence):
    """The optimal classes of one oracle call, kept as the pass's arrays.

    ``chunks`` holds, per chunk of the pass, the objectives, the 0-based
    labels (in the pass's integer type), the fits and the degenerate flags
    of its optimal strings, in canonical order.  The :class:`SolutionClass`
    at an index is built when it is read; iteration builds them chunk by
    chunk.
    """

    def __init__(self, chunks):
        self._chunks = chunks
        # one past the last index of each chunk; bisect_right passes over
        # the chunks that keep no string
        self._ends = list(accumulate(len(c[0]) for c in chunks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("class index out of range")
        k = bisect_right(self._ends, index)
        j = index - (self._ends[k - 1] if k else 0)
        objectives, labels, fits, flags = self._chunks[k]
        return SolutionClass(
            tuple((labels[j] + 1).tolist()),
            fits[j],
            float(objectives[j]),
            bool(flags[j]),
        )

    def __iter__(self):
        # one tolist() per chunk gives the Python floats, ints and bools
        for objectives, labels, fits, flags in self._chunks:
            for obj, canon, params, flag in zip(
                objectives.tolist(), (labels + 1).tolist(), fits, flags.tolist()
            ):
                yield SolutionClass(tuple(canon), params, obj, flag)

    def __repr__(self) -> str:
        return repr(list(self))


def _extend(parents, width: int, S: int):
    """Restricted-growth extensions of each parent by ``width`` labels, in chunks.

    Labels are 0-based.  The children grow one label at a time: a string
    whose largest label is t gets the labels 0, ..., min(t + 1, S - 1), in
    ascending order, so each parent is followed by its children in
    ascending order and ascending parents give ascending children.  The
    grown strings come in chunks of at most ``_CHUNK``.
    """
    labels = parents
    tops = parents.max(axis=1)
    for _ in range(width):
        # each child's row of ``labels`` and its new label, at most one above
        # that row's largest; nonzero lists them row by row, labels ascending
        rows, label = (np.arange(S) <= tops[:, None] + 1).nonzero()
        grown = np.empty((len(rows), labels.shape[1] + 1), dtype=labels.dtype)
        grown[:, :-1] = labels.take(rows, axis=0)
        grown[:, -1] = label
        labels, tops = grown, np.maximum(tops.take(rows), label)
    for start in range(0, len(labels), _CHUNK):
        yield labels[start : start + _CHUNK]


def _score(labels, S: int, table, data: Dataset, out):
    """Least-squares fits of a chunk of label prefixes, and their residuals.

    ``fit_members`` gives the fits and the rank flags of every (string,
    cluster) pair from one 2-D membership stack, written into ``out``, a
    float buffer of ``labels.size * S`` entries; full strings pass it the
    rows, so their clusters get the exact-fit rule (``model`` docstring).
    Residuals are explicit: y'y - m'theta would cancel on exact fits.
    """
    count, length = labels.shape
    n, X, y = data.n, data.regressors, data.outputs
    member = out.reshape(count, S, length)
    # in the labels' type: an int64 range would send the compare through
    # numpy's casting loop
    np.equal(labels[:, None, :], np.arange(S, dtype=labels.dtype)[:, None], out=member)
    theta, full = fit_members(
        table, member.reshape(-1, length), n, data if length == data.N else None
    )
    theta, full = theta.reshape(count, S, n), full.reshape(count, S)
    # each sample's own fit, gathered through the flat (string, cluster) index
    own = theta.reshape(-1, n).take(np.arange(0, count * S, S)[:, None] + labels, axis=0)
    r = y[:length] - np.einsum("bkj,kj->bk", own, X[:length])
    return member, theta, full, r


def _upper_bound(data: Dataset, S: int, best: float | None, score) -> float:
    """The upper bound U on the optimum for a pass of :func:`oracle_global`
    with S clusters.

    Before the first pass (``best`` None), U is guessed at the rounding
    margin ``_PRUNE_RTOL`` * y'y.  After a pass that kept no string within
    it, U is ``best``, the SSE of the best full string that pass kept; when
    it kept none, U is the objective of a default ``bcd_solve`` run with S
    subsystems, scored by ``score`` as the pass scores strings, and
    infinite when the descent raises ``SolverFailure``.
    """
    if best is None:
        return _PRUNE_RTOL * float(data.outputs @ data.outputs)
    if best < np.inf:
        return best
    try:
        found = bcd_solve(data, SolverConfig(S=S))
    except SolverFailure:
        return np.inf
    r = score(found.assignment.labels[None] - 1)[3]
    return float(np.einsum("bk,bk->b", r, r)[0])


def oracle_global(
    data: Dataset, S: int, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[float, Sequence[SolutionClass]]:
    """Global minimum of the hard-assignment objective and all optimal classes.

    Every assignment within 1e-9 (absolute) of the global minimum
    contributes one class; the classes are sorted by their canonical label
    sequence, and their ``degenerate`` flags come from
    ``model.gram_full_rank`` at ``model.GRAM_RTOL``.  The classes
    come as a read-only sequence over the pass's arrays: the
    :class:`SolutionClass` at an index is built when it is read, and
    iterating builds each in turn.

    The upper bound U of the search comes from the first pass's own guess
    (U = ``_PRUNE_RTOL`` * y'y, final when a kept string is within it, as
    on noise-free data), else from the best string that pass kept, else
    from a default ``bcd_solve`` run (infinite when the descent raises);
    the last two set U for a second pass.  Within a pass, U falls to the
    best full string scored so far.  Each is at least the optimum
    whenever it is used, so the result is the scan's (module docstring).

    The pass extends the kept prefixes through one queue per length,
    deepest full group first, so it holds about one group plus one chunk
    per length, and its frame depth does not grow with N (module
    docstring).

    ``limit`` is a node budget: the count of label prefixes and full
    strings built by every pass, checked before each batch.  The descent
    that may set the upper bound is not counted.  A pass cannot build more
    than S^N nodes and a call runs at most two, so any ``limit >= 2 *
    S**N`` is enough, and ``S**N`` where one pass decides (noise-free data,
    all-zero outputs); :class:`EnumerationLimitError` is raised when a
    batch would go over.  ``S`` is a count of at least 1 and ``limit`` of
    at least 0, and S <= N (``model`` docstring).  Every optimal class is
    kept, at N + 8*S*n + 9 bytes each, so where every string is optimal
    (all-zero outputs) memory grows with the budget, not with a chunk.
    """
    S, limit = _count("S", S, 1), _count("limit", limit, 0)
    N = data.N
    _need_samples(S, N)
    y = data.outputs
    table = moment_table(data)

    # one membership buffer for every chunk, grown to the largest: a fresh
    # one per chunk lets the C allocator hand the heap back to the system
    # between chunks and fault it in again
    buffer = np.empty(0)

    def fit(labels):
        nonlocal buffer
        if buffer.size < labels.size * S:
            buffer = np.empty(labels.size * S)
        return _score(labels, S, table, data, buffer[: labels.size * S])

    # the one prefix of length 1, the first sample in cluster 1, or with one
    # cluster the one string; labels fit the smallest integer type holding S
    root = np.zeros((1, N if S == 1 else 1), dtype=np.min_scalar_type(S))

    # the length each queue's prefixes are extended to: _STEP apart up to
    # N - _STEP, then N; with one cluster there is a single string and
    # nothing to bound
    ends = [*range(N - _STEP, 1, -_STEP)][::-1] + [N] if S > 1 else [N]
    # about a chunk of children per group of parents
    group = max(1, _CHUNK // S**_STEP)
    # theta = 0 bounds a prefix's SSE by its outputs' y'y, so at a length
    # whose y'y is within the cut no prefix can be dropped, and none is scored
    reach = np.cumsum(y * y)
    margin = _OPTIMUM_TOL + _PRUNE_RTOL * float(y @ y)
    nodes, dropped = 0, False

    def search(upper: float):
        # one pass with upper bound U = ``upper``: the best SSE of the full
        # strings it keeps and, per chunk, the objectives, labels, fits and
        # degenerate flags of those within _OPTIMUM_TOL of the running best
        nonlocal nodes, dropped
        cut = margin + upper
        # per length, the kept prefixes not yet extended (an empty queue is
        # replaced, not joined, so its width does not matter); the indices of
        # the queues holding a full group, deepest last, and of the shortest
        # queue that may hold any
        queues = [root] + [root[:0]] * (len(ends) - 1)
        ready, low = [], 0
        best = np.inf
        kept: list[tuple[np.ndarray, ...]] = []
        while True:
            while low < len(queues) and not len(queues[low]):
                low += 1
            if low == len(queues):
                return best, kept
            # the deepest queue holding a full group, else the rest of the
            # shortest one, which nothing shorter is left to feed
            i = ready.pop() if ready else low
            parents, queues[i], length = queues[i][:group], queues[i][group:], ends[i]
            for labels in _extend(parents, length - parents.shape[1], S):
                nodes += len(labels)
                if nodes > limit:
                    raise EnumerationLimitError(
                        f"the exact search would build more than {limit} "
                        "label prefixes and strings"
                    )
                if length < N:
                    if reach[length - 1] > cut:
                        member, _, full, r = fit(labels)
                        bound = (np.einsum("bsk,bk->bs", member, r * r) * full).sum(axis=1)
                        keep = bound <= cut
                        dropped |= not keep.all()
                        labels = labels[keep]
                    queue = queues[i + 1]
                    queues[i + 1] = np.concatenate([queue, labels]) if len(queue) else labels
                    continue
                _, theta, full, r = fit(labels)
                sse = np.einsum("bk,bk->b", r, r)
                if sse.min() < best:
                    best = float(sse.min())
                    # the incumbent: every string within _OPTIMUM_TOL of the
                    # final best still has its prefix bounds under the cut
                    cut = min(cut, margin + best)
                    kept = [tuple(a[c[0] <= best + _OPTIMUM_TOL] for a in c) for c in kept]
                near = sse <= best + _OPTIMUM_TOL
                if not near.all():
                    sse, labels, theta, full = sse[near], labels[near], theta[near], full[near]
                # an empty cluster has a zero Gram, so it fits theta = 0 and fails
                # the rank test, which makes its class degenerate
                kept.append((sse, labels, theta, ~full.all(axis=1)))
            # only queues i and i + 1 changed, and none past i held a full group
            ready += [k for k in (i, i + 1) if k < len(queues) and len(queues[k]) >= group]

    upper = _upper_bound(data, S, None, fit)
    best, kept = search(upper)
    # a kept string within U proves U >= optimum, and a pass that drops
    # nothing is the scan; otherwise a second pass runs with a proven U
    if best > upper and dropped:
        best, kept = search(_upper_bound(data, S, best, fit))

    # restricted-growth strings are canonical and come in ascending order,
    # so every kept string is its own class, already sorted
    return best, _Classes(kept)


def unique_optimum(classes: Sequence[SolutionClass]) -> bool:
    """Whether the optimal classes are a single well-posed one."""
    return len(classes) == 1 and not classes[0].degenerate


def same_param_set(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether two parameter banks coincide as sets, entrywise within 1e-7."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.shape != B.shape:
        return False
    return any(
        np.allclose(A[list(perm)], B, atol=1e-7, rtol=0.0)
        for perm in permutations(range(A.shape[0]))
    )
