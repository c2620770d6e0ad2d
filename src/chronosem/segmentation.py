"""Permutation-gated segmentation of a chronological point sequence.

Constrained complete-link agglomeration proposes merges of adjacent groups;
each proposed merge is authorized or blocked by a permutation test on the
pairwise distances within the union of the two groups.  The top half of
those distances is coded 1, and the statistic h counts 1-coded distances
falling between the groups.  Random relabellings estimate how often h or
more inter-group high distances arise if both groups come from one
population: when that probability p exceeds alpha the groups fuse,
otherwise the boundary is frozen for good.  Surviving groups are the
statistically homogeneous segments.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial.distance import squareform

from . import ca
from ._workers import solver
from .cluster import _agglomerate, _distance_blocks, _validate_points, pdist
from .errors import DimensionMismatch

FUSE = "fuse"
BLOCK = "block"


@dataclass(frozen=True)
class PermTestConfig:
    """Defaults follow the reference protocol: alpha 0.15, 5000 shuffles."""

    alpha: float = 0.15
    n_permutations: int = 5000
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class PermTestResult:
    h: int
    p: float
    decision: str  # "fuse" | "block"
    degenerate: bool = False  # union too small to test; auto-fused


@dataclass(frozen=True)
class BoundaryTest:
    """One gating decision between two adjacent groups."""

    left_span: tuple[int, int]  # first/last ids of the left group
    right_span: tuple[int, int]
    boundary_after: int  # id of the last left-group member
    h: int
    p: float
    decision: str
    degenerate: bool


@dataclass
class SegmentationResult:
    segments: list[list[int]]  # member ids, chronological
    blocked: list[BoundaryTest]
    tests: list[BoundaryTest] = field(repr=False, default_factory=list)
    config: PermTestConfig = field(default_factory=PermTestConfig)

    @property
    def n_segments(self) -> int:
        return len(self.segments)


# no meaningful split of fewer than 3 objects: fuse, flagged
_DEGENERATE = PermTestResult(h=0, p=1.0, decision=FUSE, degenerate=True)


def _coded_matrix(dist_matrix: np.ndarray) -> np.ndarray:
    """0/1 matrix coding each pairwise distance; the half strictly above the
    median is 1 (ties at the median conservatively 0).

    The median is taken over the sorted condensed pairs (the middle pair, or
    the mean of the two middle pairs, as ``np.median`` returns it) and the
    square matrix is coded directly; its zero diagonal codes 0.
    ``dist_matrix`` is symmetric and is only read.
    """
    pairs = np.sort(squareform(dist_matrix, checks=False))
    half = len(pairs) // 2
    median = pairs[half] if len(pairs) % 2 else (pairs[half - 1] + pairs[half]) / 2
    return (dist_matrix > median).astype(float)


def _relabelled_counts(
    coded: np.ndarray, n_a: int, n_perms: int, rng: np.random.Generator
) -> np.ndarray:
    """Inter-group 1-coded counts for n_perms size-preserving relabellings.

    The first relabelling is the observed one, so the identity is always a
    member of the permutation set and p never reaches zero.  All sums are
    integer-valued and exact in float64.
    """
    labels = np.zeros((n_perms, coded.shape[0]))
    labels[:, :n_a] = 1.0
    if n_perms > 1:
        rng.permuted(labels[1:], axis=1, out=labels[1:])
    deg = coded.sum(axis=1)
    # count = v' C (1-v) = v'C1 - v'Cv for indicator v of group A
    quad = np.einsum("ij,ij->i", labels @ coded, labels)
    return labels @ deg - quad


def _test_from_distances(
    dist_matrix: np.ndarray,
    n_a: int,
    config: PermTestConfig,
    seed_seq: np.random.SeedSequence,
) -> PermTestResult:
    if dist_matrix.shape[0] < 3:
        return _DEGENERATE
    coded = _coded_matrix(dist_matrix)
    h = int(coded[:n_a, n_a:].sum())
    rng = np.random.Generator(np.random.Philox(seed_seq))
    counts = _relabelled_counts(coded, n_a, config.n_permutations, rng)
    p = float(np.count_nonzero(counts >= h) / config.n_permutations)
    decision = FUSE if p > config.alpha else BLOCK
    return PermTestResult(h=h, p=p, decision=decision)


def perm_test(
    group_a, group_b, config: PermTestConfig = PermTestConfig()
) -> PermTestResult:
    """Test whether two adjacent groups of points form one population.

    Returns the inter-group high-distance count h, the Monte Carlo
    probability p of seeing a count >= h under random relabelling, and the
    fuse/block decision (fuse iff p > alpha).  Unions smaller than 3 points
    cannot be split meaningfully and auto-fuse with ``degenerate=True``.
    """
    a = np.atleast_2d(np.asarray(group_a, dtype=float))
    b = np.atleast_2d(np.asarray(group_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"group dimensionalities differ: {a.shape[1]} vs {b.shape[1]}"
        )
    if len(a) < 1 or len(b) < 1:
        raise DimensionMismatch("both groups need at least one point")
    return _test_from_distances(
        squareform(pdist(np.vstack([a, b]))),
        len(a),
        config,
        np.random.SeedSequence(config.rng_seed),
    )


# a gate is named by its key (t, start, split, stop): the union
# start..stop-1 of two adjacent groups split before `split`, tested as the
# t-th gate of the run, which seeds its draws with (rng_seed, t)
GateKey = tuple[int, int, int, int]

_LOOKAHEAD = 8  # predicted proposals offered to the workers at each gate


def _gate(block: Callable, config: PermTestConfig, key: GateKey) -> PermTestResult:
    t, start, split, stop = key
    if stop - start < 3:
        return _DEGENERATE  # no distance is read for a union that is not tested
    union = slice(start, stop)
    seed_seq = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(t,))
    return _test_from_distances(block(union, union), split - start, config, seed_seq)


def segment(
    points,
    config: PermTestConfig = PermTestConfig(),
    ids: list[int] | None = None,
) -> SegmentationResult:
    """Split a chronological point sequence into homogeneous segments.

    Runs the constrained complete-link agglomeration, gating every proposed
    merge with :func:`perm_test`.  Blocked boundaries are permanent; when
    the lowest pair is blocked the next-lowest authorizable pair is tried,
    and the procedure stops once every remaining adjacency is blocked.
    Reproducible bit-for-bit for a fixed ``config.rng_seed``: test t draws
    its permutations from an independently seeded stream (seed, t), so
    replicates may be evaluated in parallel without changing decisions.
    No distance matrix is built: the links and gates compute only the
    distance blocks they read, with the bits of
    :func:`chronosem.cluster.pdist`.
    """
    pts = _validate_points(points)
    n = len(pts)
    if n == 0:
        raise DimensionMismatch("need at least 1 point to segment")
    ids = list(range(n)) if ids is None else list(ids)
    if len(ids) != n:
        raise DimensionMismatch("ids length does not match points")
    block = _distance_blocks(pts)
    tests: list[BoundaryTest] = []

    def gate(left: range, right: range, upcoming) -> bool:
        t = len(tests)
        res = solve(
            (t, left.start, right.start, right.stop),
            # degenerate unions are cheaper to compute inline
            lambda: [
                (u, *span)
                for u, span in enumerate(upcoming(_LOOKAHEAD), start=t + 1)
                if span[2] - span[0] >= 3
            ],
        )
        tests.append(
            BoundaryTest(
                left_span=(ids[left[0]], ids[left[-1]]),
                right_span=(ids[right[0]], ids[right[-1]]),
                boundary_after=ids[left[-1]],
                h=res.h,
                p=res.p,
                decision=res.decision,
                degenerate=res.degenerate,
            )
        )
        return res.decision == FUSE

    with solver(lambda key: _gate(block, config, key)) as solve:
        _, _, bounds = _agglomerate(block, n, gate)
    return SegmentationResult(
        segments=[ids[a:b] for a, b in zip(bounds, bounds[1:])],
        blocked=[t for t in tests if t.decision == BLOCK],
        tests=tests,
        config=config,
    )


@dataclass
class SegmentFactorMap:
    """Fresh factor space over segments-by-terms aggregates.

    ``coords[k]`` holds segment k's coordinates; singleton segments are
    zero-mass projections and are flagged in ``supplementary``.  A
    singleton whose terms all vanish from the active column set gets NaN
    coordinates.
    """

    coords: np.ndarray  # (n_segments, S)
    supplementary: np.ndarray  # bool per segment
    model: ca.CAModel
    kept_cols: np.ndarray  # indices into the original term columns


def segment_centroids_as_supplementary(
    result: SegmentationResult, counts
) -> SegmentFactorMap:
    """Map segments into a fresh factor space built from their term totals.

    Each segment's member count rows are summed into one aggregate profile.
    Single-document segments are held out of the decomposition (they could
    distort it) and projected afterwards with zero mass, unless every
    segment is a singleton.  ``counts`` must hold one row per clustered
    document, in sequence order; it is summed in CSR form (a dense table is
    converted), never densified.
    """
    counts = sparse.csr_array(counts)
    sizes = np.array([len(seg) for seg in result.segments])
    n_docs = int(sizes.sum())
    if counts.shape[0] != n_docs:
        raise DimensionMismatch(
            f"counts has {counts.shape[0]} rows for {n_docs} segmented documents"
        )

    # one sparse product with the segment-membership indicator sums each
    # segment's rows in document order
    members = sparse.csr_array(
        (np.ones(n_docs, dtype=np.result_type(counts.dtype, np.int64)),
         np.arange(n_docs), np.cumsum([0, *sizes])),
        shape=(result.n_segments, n_docs),
    )
    seg_counts = (members @ counts).toarray().astype(float)

    supplementary = sizes == 1
    if supplementary.all():
        supplementary[:] = False

    active = seg_counts[~supplementary]
    col_support = active.sum(axis=0)
    kept_cols = np.flatnonzero(col_support > 0)
    _, model = ca.fit_ca(active[:, kept_cols])

    coords = np.zeros((result.n_segments, model.n_factors))
    coords[~supplementary] = model.row_coords
    for k in np.flatnonzero(supplementary):
        profile = seg_counts[k, kept_cols]
        if profile.sum() <= 0:
            coords[k] = np.nan
        else:
            coords[k] = ca.project_supplementary_row(model, profile)
    return SegmentFactorMap(
        coords=coords,
        supplementary=supplementary,
        model=model,
        kept_cols=kept_cols,
    )
