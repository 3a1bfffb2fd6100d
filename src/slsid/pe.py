"""Excitation certificates for labeled switched-linear data.

A labeled dataset identifies its generating model uniquely (up to relabeling
of subsystems) only when the regressors and the switching pattern are rich
enough.  This module implements the checkable conditions:

  1. all subsystem parameter vectors pairwise distinct;
  2. no regressor orthogonal to any parameter difference;
  3. an ordered-cluster partition condition: clusters can be arranged in a
     sequence so that, at position s of S, every split of that cluster into
     at most S - s + 1 nonempty blocks leaves at least one block with a
     full-rank Gram (at the last position this is plain nonsingularity of
     the whole cluster Gram).

It also provides the three competing minimum-sample-count formulas and a
sufficient certificate based on n-genericity plus cluster-size thresholds.
All verdicts are exact; when an enumeration guard (``MAX_BLOCK_SIZE``,
``MAX_GENERICITY_SUBSETS``) is hit the result is an explicit "undecided",
never a guess.  Every rank and angle decision uses the fixed relative
tolerance ``model.GRAM_RTOL``, the rank ones through
``model.gram_full_rank``, on rows scaled exactly by a power of two, so
the verdicts on rows and on 2^a times them are the same.

Condition 3 is decided per cluster in one place,
:func:`check_partition_condition`, from one capacity scan
(``partitions.deficient_block_capacity``) of the cluster's n-subsets.
This is the capacity argument behind the sample count
((n-1)S^2 + (n+1)S)/2: when m >= n rows have every n-subset clear of the
scan's floor, every block of at most n-1 of them is deficient by its row
count, and every larger block holds an n-subset that clears the floor,
so it is full rank.  No split into fewer than ceil(m/(n-1)) blocks is
then all-deficient, and the split into that many runs of n-1 consecutive
rows, the walk's first witness in restricted-growth order, is the
smallest: it comes in closed form, with no walk and no block
decomposition.  A cluster of m > S(n-1) rows needs only its head, its
first S(n-1)+1 rows: split the cluster into at most S blocks and, by
pigeonhole, some block holds n head rows.  So when every n-subset of the
head clears the floor of the whole cluster, that block is full rank, and
the cluster has no all-deficient split within S blocks (f is None), as
the scan of all its n-subsets would find when they clear and the walk
when they do not.  The scan reads C(S(n-1)+1, n) Grams in place of
C(m, n).  A head subset that fails the floor fails it in the scan of
all rows too, which then walks.  Every other cluster is walked
(``partitions.min_rank_deficient_partition``).  Either way the result is
the smallest all-deficient split in restricted-growth order, as a brute
force over all partitions finds it.  ``PartitionCheck.decided_by``
records the path per cluster, and the report's ``cond3_decided_by``
prints it.  At the last stage condition 3 is plain nonsingularity of the
whole cluster Gram, so the report reads each cluster's excitation from
the one-block budget: a cluster whose smallest split takes two blocks or
more, or none within S, has a full-rank Gram.  The model's n must match
the dataset's, and the labels must be one per sample with none above S;
anything else raises ValueError before a check runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .model import GRAM_RTOL, Assignment, Dataset, SLModel, _check_pair, _count, gram_full_rank
from .partitions import (
    deficient_block_capacity,
    gram_nonsingular,
    min_rank_deficient_partition,
    subset_gram_svals,
)

CERTIFIED = "certified"
REFUTED = "refuted"
UNDECIDED = "undecided"
# absolute: parameter vectors closer than this count as one subsystem
_DISTINCT_TOL = 1e-9
# enumeration guards: the partition search is undecided on a cluster of more
# rows, and the genericity scan returns None beyond this many n-subsets
MAX_BLOCK_SIZE = 14
MAX_GENERICITY_SUBSETS = 200_000
# digits of C(n+S, n) - 1 beyond which min_samples_vidal raises: Python's
# default limit for converting an int to a string, past which the CLI could
# not print the count
_MAX_DIGITS = 4300
# cells beyond which min_samples_table raises: a square grid of 10^4 cells
# (100 x 100) takes about 0.1 s, 300 x 300 about 3 s; the paper's is 10 x 7
_MAX_CELLS = 10_000


@dataclass(frozen=True)
class SampleCounts:
    """Minimum sample counts required by the three excitation conditions."""

    ours: int
    bako: int
    vidal: int


def min_samples_ours(n: int, S: int) -> int:
    """((n-1)S^2 + (n+1)S)/2; the numerator is always even."""
    n, S = _count("n", n, 1), _count("S", S, 1)
    return ((n - 1) * S * S + (n + 1) * S) // 2


def min_samples_bako(n: int, S: int) -> int:
    """n S^2."""
    n, S = _count("n", n, 1), _count("S", S, 1)
    return n * S * S


def min_samples_vidal(n: int, S: int) -> int:
    """C(n+S, n) - 1, in exact integer arithmetic.

    A count of more than ``_MAX_DIGITS`` digits raises ValueError before
    it is computed.  Its log10, the sum of log10((n + S - k + i) / i) for
    i = 1..k with k = min(n, S), is summed until it passes the limit; each
    term is at least log10(2), so that takes at most about 14,300 terms,
    for counts of any size.
    """
    n, S = _count("n", n, 1), _count("S", S, 1)
    k, digits = min(n, S), 0.0
    for i in range(1, k + 1):
        digits += math.log10(n + S - k + i) - math.log10(i)
        if digits >= _MAX_DIGITS:
            raise ValueError(
                f"C(n+S, n) - 1 for n={n}, S={S} has more than {_MAX_DIGITS} digits"
            )
    return math.comb(n + S, n) - 1


def min_samples_table(n_max: int, S_max: int) -> dict[tuple[int, int], SampleCounts]:
    """Grid of all three counts for 1 <= n <= n_max, 1 <= S <= S_max.

    The largest cell's Vidal count is checked first, then the grid's size,
    so a grid whose counts pass ``_MAX_DIGITS`` digits or that has more
    than ``_MAX_CELLS`` cells raises before any cell is built.
    """
    n_max, S_max = _count("n_max", n_max, 1), _count("S_max", S_max, 1)
    min_samples_vidal(n_max, S_max)
    if n_max * S_max > _MAX_CELLS:
        raise ValueError(
            f"a table for n={n_max}, S={S_max} has {n_max * S_max} cells, "
            f"more than {_MAX_CELLS}"
        )
    return {
        (n, S): SampleCounts(
            min_samples_ours(n, S), min_samples_bako(n, S), min_samples_vidal(n, S)
        )
        for n in range(1, n_max + 1)
        for S in range(1, S_max + 1)
    }


def check_distinct_params(model: SLModel) -> bool:
    """True when all pairwise parameter differences have norm above 1e-9."""
    for i, j in combinations(range(model.S), 2):
        if np.linalg.norm(model.params[i] - model.params[j]) <= _DISTINCT_TOL:
            return False
    return True


def check_no_separating_regressor(
    data: Dataset, model: SLModel
) -> tuple[bool, list[tuple[int, int, int]]]:
    """Check that no regressor separates a pair of subsystems.

    A sample k violates the condition when x_k is (numerically) orthogonal
    to theta_i - theta_j for some pair i < j, i.e. both subsystems predict
    the same output there: |x_k . d| <= GRAM_RTOL |x_k| |d| for the
    difference d.  Returns the verdict and the list of violating (k, i, j),
    all 1-based.
    """
    _check_pair(data, model)
    violations: list[tuple[int, int, int]] = []
    # each row scaled by its own power of two, which the test is free of:
    # no row's norm underflows, however far it lies below the largest row
    # (the row maxima of a column-major copy take one pass per column)
    X = data.regressors
    peak = np.asfortranarray(np.abs(X)).max(axis=1, initial=0.0)
    X = np.ldexp(X, -np.frexp(peak)[1][:, None])
    xnorm = np.linalg.norm(X, axis=1)
    for i, j in combinations(range(model.S), 2):
        diff = model.params[i] - model.params[j]
        dnorm = np.linalg.norm(diff)
        inner = np.abs(X @ diff)
        bad = np.flatnonzero(inner <= GRAM_RTOL * xnorm * dnorm)
        violations.extend((int(k) + 1, i + 1, j + 1) for k in bad)
    violations.sort()
    return not violations, violations


def check_cluster_pe(data: Dataset, a: Assignment, s: int) -> bool:
    """Classical single-system excitation of cluster s: full-rank Gram."""
    a.validate(data.N)
    s = _count("s", s, 1)
    rows = data.regressors[a.indices_of(s)]
    return gram_nonsingular(rows, data.n)


@dataclass(frozen=True)
class PartitionWitness:
    """An all-rank-deficient split refuting one stage of the condition.

    ``cluster`` is the subsystem label, ``budget`` the block allowance at the
    stage where the cluster would be placed, and ``blocks`` the offending
    split as tuples of 1-based sample indices.
    """

    cluster: int
    budget: int
    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PartitionCheck:
    """Outcome of the ordered-cluster partition condition."""

    status: str
    permutation: tuple[int, ...] | None = None
    witness: PartitionWitness | None = None
    # per cluster: smallest all-rank-deficient block count, or None when no
    # such split exists with at most S blocks
    min_deficient_blocks: dict[int, int | None] = field(default_factory=dict)
    # per cluster: what decided it; "scan" when the capacity scan cleared
    # every n-subset, or every n-subset of the first S(n-1)+1 rows of a
    # larger cluster, "walk" for the partition walk, "guard" for a cluster
    # above MAX_BLOCK_SIZE rows (the clusters the guard left unread have none)
    decided_by: dict[int, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == CERTIFIED


def _consecutive_split(m: int, size: int, max_blocks: int) -> tuple[int, list[list[int]]] | None:
    """Rows 0..m-1 in runs of ``size``, or None past ``max_blocks`` blocks or at size 0.

    The capacity argument's split of m >= n generic rows, with ``size``
    n-1 (module docstring).  Generic rows in one dimension (size 0) hold
    no deficient block.
    """
    if size == 0 or -(-m // size) > max_blocks:
        return None
    blocks = [list(range(i, min(i + size, m))) for i in range(0, m, size)]
    return len(blocks), blocks


def check_partition_condition(data: Dataset, a: Assignment, S: int) -> PartitionCheck:
    """Search for an ordering of clusters certifying the partition condition.

    For each cluster the adversary seeks a split into few all-rank-deficient
    blocks; a cluster whose smallest such split uses f blocks can safely
    occupy any stage s with block budget S - s + 1 < f.  The condition holds
    iff the clusters can be arranged so every stage is safe, which is decided
    from the f values alone in one greedy pass that places the smallest safe
    label at each stage.  The pass keeps the unplaced clusters in one list
    in label order and removes each as it is placed, so each cluster is
    placed once.  A cluster safe at one stage stays safe at every
    later one, so the pass never strands the rest: it fails only when no
    ordering passes, and otherwise reports the lexicographically smallest
    certificate.  A cluster of more than ``MAX_BLOCK_SIZE`` rows makes the
    result UNDECIDED.

    Each cluster's f comes from one capacity scan
    (:func:`partitions.deficient_block_capacity`), the only scan of it, of
    the n-subsets of its head: all m rows, or the first S(n-1)+1 when m is
    larger, against the floor of all m.  A cluster whose capacity is below
    its head's row count is settled by the scan: with the whole cluster
    as its head (m >= n rows, every n-subset clear of the floor) it is
    generic, and its f is ceil(m/(n-1)), or None above S, in closed form
    by the capacity argument; with a shorter head every split into at most
    S blocks puts n head rows in one block, so f is None (module
    docstring).  Neither takes a walk or a block decomposition.  Only the
    other clusters are walked, by
    :func:`partitions.min_rank_deficient_partition`.  ``decided_by``
    records which path settled each cluster.  ``S`` is a count of at least
    1, and no label may exceed it.
    """
    S = _count("S", S, 1)
    a.validate(data.N, S)
    members = {s: a.indices_of(s) for s in range(1, S + 1)}
    guarded = {s: "guard" for s, idx in members.items() if idx.size > MAX_BLOCK_SIZE}
    if guarded:
        return PartitionCheck(status=UNDECIDED, decided_by=guarded)

    # f[s]: smallest all-rank-deficient block count (0 for an empty cluster,
    # which defeats every stage); None when no split with <= S blocks exists.
    f: dict[int, int | None] = {}
    splits: dict[int, list[list[int]]] = {}
    decided_by: dict[int, str] = {}
    for s, idx in members.items():
        rows = data.regressors[idx]
        head = min(idx.size, S * (data.n - 1) + 1)
        capacity = deficient_block_capacity(rows, head)
        if capacity < head:
            # past a head of S(n-1)+1 rows the runs of n-1 rows number more
            # than S, so this is None, the pigeonhole's verdict
            decided_by[s] = "scan"
            found = _consecutive_split(idx.size, capacity, S)
        else:
            decided_by[s] = "walk"
            found = min_rank_deficient_partition(rows, S)
        if found is None:
            f[s] = None
        else:
            count, blocks = found
            f[s] = count
            splits[s] = [[int(idx[i]) + 1 for i in block] for block in blocks]

    perm: list[int] = []
    rest = list(members)
    for budget in range(S, 0, -1):
        safe = next((s for s in rest if f[s] is None or f[s] > budget), None)
        if safe is None:
            # every cluster safe here is already placed, so no ordering
            # passes this stage; the witness is the remaining cluster with
            # the largest f (all remaining ones are splittable)
            s = max(rest, key=lambda s: (f[s], -s))
            witness = PartitionWitness(
                cluster=s, budget=budget, blocks=tuple(tuple(b) for b in splits[s])
            )
            return PartitionCheck(
                status=REFUTED, witness=witness, min_deficient_blocks=f, decided_by=decided_by
            )
        perm.append(safe)
        rest.remove(safe)
    return PartitionCheck(
        status=CERTIFIED, permutation=tuple(perm), min_deficient_blocks=f, decided_by=decided_by
    )


def check_genericity_sufficient(data: Dataset, a: Assignment, S: int) -> bool | None:
    """Sufficient excitation certificate from n-genericity and cluster sizes.

    True when every n-subset of every cluster has a full-rank Gram and the
    cluster sizes, sorted descending, dominate n + (n-1)(S-s).  Returns None
    when the subset enumeration would exceed ``MAX_GENERICITY_SUBSETS``,
    before any subset is scanned.  The subsets are
    decided by :func:`partitions.subset_gram_svals`, one batched SVD per
    fixed-size chunk, so memory stays bounded at any guard; the scan stops
    at the first chunk holding a deficient subset.  ``S`` is a count of at
    least 1, and no label may exceed it.
    """
    S = _count("S", S, 1)
    a.validate(data.N, S)
    n = data.n
    sizes = sorted(a.cluster_sizes(S), reverse=True)
    for s, size in enumerate(sizes, start=1):
        if size < n + (n - 1) * (S - s):
            return False
    total = sum(math.comb(size, n) for size in sizes)
    if total > MAX_GENERICITY_SUBSETS:
        return None
    for s in range(1, S + 1):
        for _, svals in subset_gram_svals(data.regressors[a.indices_of(s)]):
            if not gram_full_rank(svals, n).all():
                return False
    return True


@dataclass(frozen=True)
class PEReport:
    """Aggregated excitation verdicts for a labeled dataset."""

    cond1_distinct_params: bool
    cond2_no_separating_regressor: bool
    cond2_violations: tuple[tuple[int, int, int], ...]
    cluster_pe: tuple[bool, ...]
    cond3_partition: PartitionCheck
    sizes: tuple[int, ...]
    certified: bool
    undecided: bool

    def to_dict(self) -> dict:
        part = self.cond3_partition
        witness = None
        if part.witness is not None:
            witness = {
                "cluster": part.witness.cluster,
                "budget": part.witness.budget,
                "blocks": [list(b) for b in part.witness.blocks],
            }
        return {
            "cond1_distinct_params": self.cond1_distinct_params,
            "cond2_no_separating_regressor": self.cond2_no_separating_regressor,
            "cond2_violations": [list(v) for v in self.cond2_violations],
            "cluster_pe": list(self.cluster_pe),
            "cond3_status": part.status,
            "cond3_permutation": list(part.permutation) if part.permutation else None,
            "cond3_witness": witness,
            "cond3_decided_by": [part.decided_by.get(s) for s in range(1, len(self.sizes) + 1)],
            "sizes": list(self.sizes),
            "certified": self.certified,
            "undecided": self.undecided,
        }


def pe_report(data: Dataset, model: SLModel) -> PEReport:
    """Run conditions 1-3 and per-cluster excitation; certified iff 1-3 pass.

    The labels certified are the dataset's truth labels; a dataset without
    them raises ValueError.  The n-genericity certificate is not part of the
    report, since the verdict does not read it;
    :func:`check_genericity_sufficient` gives it.

    Each cluster's excitation is condition 3 at the last stage, a budget
    of one block: the cluster's Gram is full rank exactly when its
    smallest all-deficient split takes two blocks or more, or none within
    S (0 is an empty cluster, 1 a deficient whole cluster).  It is read
    from the partition check's f, with no further decomposition;
    :func:`check_cluster_pe` runs only on the clusters the
    ``MAX_BLOCK_SIZE`` guard left without one.
    """
    a = data.truth
    if a is None:
        raise ValueError("dataset carries no truth labels (no zeta column) to certify")
    _check_pair(data, model)
    S = model.S
    a.validate(data.N, S)
    cond1 = check_distinct_params(model)
    cond2, violations = check_no_separating_regressor(data, model)
    part = check_partition_condition(data, a, S)
    f = part.min_deficient_blocks
    cluster_pe = tuple(
        (f[s] is None or f[s] >= 2) if s in f else check_cluster_pe(data, a, s)
        for s in range(1, S + 1)
    )
    return PEReport(
        cond1_distinct_params=cond1,
        cond2_no_separating_regressor=cond2,
        cond2_violations=tuple(violations),
        cluster_pe=cluster_pe,
        cond3_partition=part,
        sizes=a.cluster_sizes(S),
        certified=cond1 and cond2 and part.status == CERTIFIED,
        undecided=part.status == UNDECIDED,
    )
