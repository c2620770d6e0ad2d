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

__all__ = [
    "BoundaryTest",
    "PermTestConfig",
    "PermTestResult",
    "SegmentationResult",
    "SegmentFactorMap",
    "perm_test",
    "segment",
    "segment_centroids_as_supplementary",
]

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


@dataclass(frozen=True, kw_only=True)
class BoundaryTest(PermTestResult):
    """One gating decision: the test's outcome and the two groups it split."""

    left_span: tuple[int, int]  # first/last ids of the left group
    right_span: tuple[int, int]

    @property
    def boundary_after(self) -> int:  # id of the last left-group member
        return self.left_span[1]


@dataclass
class SegmentationResult:
    segments: list[list[int]]  # member ids, chronological
    tests: list[BoundaryTest] = field(repr=False, default_factory=list)
    config: PermTestConfig = field(default_factory=PermTestConfig)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def blocked(self) -> list[BoundaryTest]:
        return [t for t in self.tests if t.decision == BLOCK]


def _coded_matrix(dist_matrix: np.ndarray) -> np.ndarray:
    """0/1 matrix coding each pairwise distance; the half strictly above the
    median is 1 (ties at the median conservatively 0).

    The median is ``np.median`` of the condensed pairs, and the square
    matrix is coded directly; its zero diagonal codes 0.  ``dist_matrix``
    is symmetric and is only read.
    """
    median = np.median(squareform(dist_matrix, checks=False))
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
    rng.permuted(labels[1:], axis=1, out=labels[1:])
    deg = coded.sum(axis=1)
    # count = v' C (1-v) = v'C1 - v'Cv for indicator v of group A
    quad = np.einsum("ij,ij->i", labels @ coded, labels)
    return labels @ deg - quad


# a gate is named by its key (*spawn_key, start, split, stop): the union
# start..stop-1 of two adjacent groups split before `split`, whose draws
# are seeded with (rng_seed, *spawn_key); the run's t-th gate has the spawn
# key (t,), perm_test the empty one
GateKey = tuple[int, ...]


def _gate(block: Callable, config: PermTestConfig, key: GateKey) -> PermTestResult:
    *spawn_key, start, split, stop = key
    if stop - start < 3:  # no meaningful split: fuse, flagged, reading no distance
        return PermTestResult(h=0, p=1.0, decision=FUSE, degenerate=True)
    union, n_a = slice(start, stop), split - start
    coded = _coded_matrix(block(union, union))
    h = int(coded[:n_a, n_a:].sum())
    seed_seq = np.random.SeedSequence(config.rng_seed, spawn_key=spawn_key)
    rng = np.random.Generator(np.random.Philox(seed_seq))
    counts = _relabelled_counts(coded, n_a, config.n_permutations, rng)
    p = float(np.count_nonzero(counts >= h) / config.n_permutations)
    return PermTestResult(h=h, p=p, decision=FUSE if p > config.alpha else BLOCK)


def perm_test(
    group_a, group_b, config: PermTestConfig = PermTestConfig()
) -> PermTestResult:
    """Test whether two adjacent groups of points form one population.

    Returns the inter-group high-distance count h, the Monte Carlo
    probability p of seeing a count >= h under random relabelling, and the
    fuse/block decision (fuse iff p > alpha).  Unions smaller than 3 points
    cannot be split meaningfully and auto-fuse with ``degenerate=True``.
    This is the gate :func:`segment` runs, seeded with ``rng_seed`` alone.
    """
    a = np.atleast_2d(np.asarray(group_a, dtype=float))
    b = np.atleast_2d(np.asarray(group_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"group dimensionalities differ: {a.shape[1]} vs {b.shape[1]}"
        )
    if len(a) < 1 or len(b) < 1:
        raise DimensionMismatch("both groups need at least one point")
    d = squareform(pdist(np.vstack([a, b])))
    return _gate(lambda rows, cols: d[rows, cols], config, (0, len(a), len(d)))


_LOOKAHEAD = 8  # predicted proposals offered to the workers at each gate


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

    def gate(span: tuple[int, int, int], upcoming) -> bool:
        t = len(tests)
        start, split, stop = span
        res = solve(
            (t, *span),
            # degenerate unions are cheaper to compute inline
            lambda: [
                (u, *ahead)
                for u, ahead in enumerate(upcoming(_LOOKAHEAD), start=t + 1)
                if ahead[2] - ahead[0] >= 3
            ],
        )
        tests.append(
            BoundaryTest(
                **vars(res),
                left_span=(ids[start], ids[split - 1]),
                right_span=(ids[split], ids[stop - 1]),
            )
        )
        return res.decision == FUSE

    with solver(lambda key: _gate(block, config, key)) as solve:
        _, _, bounds = _agglomerate(block, n, gate)
    return SegmentationResult(
        segments=[ids[a:b] for a, b in zip(bounds, bounds[1:])],
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
    document, in sequence order; it is summed and sliced in CSR form (a
    dense table is converted), and only the singletons' kept-column
    profiles are made dense.
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
    seg_counts = members @ counts

    supplementary = sizes == 1
    if supplementary.all():
        supplementary[:] = False

    active = seg_counts[~supplementary]
    kept_cols = np.flatnonzero(active.sum(axis=0) > 0)
    model = ca.fit_ca(active[:, kept_cols])

    coords = np.zeros((result.n_segments, model.n_factors))
    coords[~supplementary] = model.row_coords
    profiles = seg_counts[supplementary][:, kept_cols].toarray()
    for k, profile in zip(np.flatnonzero(supplementary), profiles):
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
