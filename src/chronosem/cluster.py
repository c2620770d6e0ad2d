"""Sequence-constrained complete-link agglomerative clustering.

Only chronologically adjacent clusters may merge, so every cluster is a
contiguous interval of the document sequence; segmentation runs the same
loop with a permutation gate on each proposed merge.  Dissimilarity between
clusters is the complete-link criterion (maximum pairwise Euclidean
distance), which keeps clusters compact and guarantees non-decreasing merge
heights under the adjacency constraint.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import _workers
from .errors import DimensionMismatch

__all__ = ["Dendrogram", "cluster", "to_newick"]


@dataclass(frozen=True)
class Merge:
    left: int  # cluster id (leaves 0..n-1, internal n+step)
    right: int
    height: float
    size: int  # members in the merged cluster


@dataclass
class Dendrogram:
    """Full agglomeration history over chronologically ordered leaves."""

    leaves: list[int]  # document ids in sequence order
    merges: list[Merge]
    # cluster id -> (start, end); acceptance criterion 5 checks merges by it
    intervals: dict = field(repr=False)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


def _validate_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatch("points must form an (n, dims) array")
    if not np.all(np.isfinite(pts)):
        raise DimensionMismatch("points contain non-finite coordinates")
    return pts


_STRIPES = 64  # row stripes of the distance vector, about equal in pairs


def pdist(points) -> np.ndarray:
    """Read-only condensed Euclidean distances between the rows of
    ``points``, equal bit for bit to ``scipy.spatial.distance.pdist``.

    Row i's pairs ``(i, j > i)`` are one contiguous run of the condensed
    vector.  The rows are split into stripes ``[a, b)`` holding about equal
    numbers of pairs; each stripe computes its rows with ``cdist`` (which
    shares ``pdist``'s Euclidean kernel) and copies them into their runs.
    No two stripes write the same cell, so the stripes run on a pool of
    the usable cores (at most 4) and the result does not depend on their
    order.
    """
    pts = _validate_points(points)
    n = len(pts)
    rows = np.arange(n + 1)
    run_start = rows * (2 * n - rows - 1) // 2  # pairs of the rows before i
    cuts = np.searchsorted(run_start, run_start[-1] * np.arange(1, _STRIPES) / _STRIPES)
    bounds = np.unique(np.concatenate(([0], cuts, [n])))
    out = np.empty(run_start[-1])

    def fill(a: int, b: int) -> None:
        block = cdist(pts[a:b], pts[a + 1 :])
        for i in range(a, b):
            out[run_start[i] : run_start[i + 1]] = block[i - a, i - a :]

    with ThreadPoolExecutor(max_workers=_workers._default_workers()) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))  # raises the first error
    out.flags.writeable = False
    return out


def _condensed(dist, n: int) -> np.ndarray:
    """``dist`` as given, checked to be the condensed distances of n points
    (the vector :func:`pdist` returns); a square matrix is rejected."""
    if np.shape(dist) != (n * (n - 1) // 2,):
        raise DimensionMismatch(
            f"distance vector shape {np.shape(dist)} does not match {n} points"
        )
    return np.asarray(dist)


def _distance_blocks(pts: np.ndarray) -> Callable[[slice, slice], np.ndarray]:
    """``block(a, b)``: the distances between the rows ``pts[a]`` and
    ``pts[b]``, each block computed with ``cdist``, the kernel :func:`pdist`
    uses, so every value equals the one :func:`pdist` gives for that pair
    bit for bit and no n×n matrix is built.
    """
    return lambda a, b: cdist(pts[a], pts[b])


def _upcoming(heights: np.ndarray, pos: int, bounds: list, k: int) -> list:
    """``(start, split, stop)`` of up to k boundaries the loop will most
    likely propose after the one at ``pos``, in order: the groups
    ``start..split-1`` and ``split..stop-1``.

    The loop proposes the lowest unblocked link, and a merge changes only
    the two links beside it, which can only grow.  So the guess is the
    next-lowest links in order, assuming each proposal merges: a link
    beside an earlier proposal is skipped, as its members and height will
    change.  A wrong guess costs time, never a result.
    """
    window = min(len(heights), 4 * k)
    near = np.flatnonzero(heights <= np.partition(heights, window - 1)[window - 1])
    near = near[np.argsort(heights[near], kind="stable")]
    changing = {pos - 1, pos, pos + 1}
    ahead = []
    for q, height in zip(near.tolist(), heights[near].tolist()):
        if len(ahead) == k or height == np.inf:
            break
        if q not in changing:
            ahead.append((bounds[q], bounds[q + 1], bounds[q + 2]))
            changing.update((q - 1, q + 1))
    return ahead


def _agglomerate(
    block: Callable[[slice, slice], np.ndarray],
    n: int,
    gate: Callable[[tuple[int, int, int], Callable[[int], list]], bool] | None = None,
) -> tuple[list[Merge], dict, list[int]]:
    """Constrained complete-link agglomeration of n points in sequence.

    ``block(a, b)`` returns the distances between the points of the slices
    ``a`` and ``b`` (see :func:`_distance_blocks`); the loop reads only the
    adjacent pairs and the blocks between adjacent clusters.

    Clusters are intervals over 0..n-1.  Each step proposes the adjacent
    pair with the lowest complete-link dissimilarity among the boundaries
    not yet blocked; ``argmin`` returns the first minimum, so ties break
    toward the earliest pair.  ``gate(span, upcoming)`` receives the
    proposal's ``(start, split, stop)`` (the groups ``start..split-1`` and
    ``split..stop-1``) and returns True to merge or False to block that
    boundary for good; without a gate every proposal merges.
    ``upcoming(k)`` lists the k proposals most likely to follow (see
    :func:`_upcoming`), so a gate may test them ahead.  Stops when one
    cluster remains or every boundary is blocked.

    Returns the merges, the interval ``(start, end)`` of every cluster id
    (leaves 0..n-1, internal n+step) and the boundaries of the surviving
    clusters: cluster k holds ``bounds[k]..bounds[k+1]-1``.
    """
    bounds = list(range(n + 1))
    ids = list(range(n))
    # link between clusters pos and pos+1; distances are finite (see
    # _validate_points), so inf marks a blocked boundary, whose link is
    # never read again
    links = np.array([block(slice(i, i + 1), slice(i + 1, i + 2))[0, 0] for i in range(n - 1)])
    merges: list[Merge] = []
    intervals = {i: (i, i) for i in range(n)}
    while len(links):
        pos = int(np.argmin(links))
        if links[pos] == np.inf:
            break
        start, _, stop = span = tuple(bounds[pos : pos + 3])
        if gate is not None and not gate(span, lambda k: _upcoming(links, pos, bounds, k)):
            links[pos] = np.inf
            continue
        merges.append(Merge(ids[pos], ids[pos + 1], float(links[pos]), stop - start))
        ids[pos] = n + len(merges) - 1
        intervals[ids[pos]] = (start, stop - 1)
        del bounds[pos + 1], ids[pos + 1]
        links = np.delete(links, pos)
        for k in (pos - 1, pos):  # the two links the merge changed
            if 0 <= k < len(links) and links[k] != np.inf:
                a, b = slice(*bounds[k : k + 2]), slice(*bounds[k + 1 : k + 3])
                links[k] = block(a, b).max()
    return merges, intervals, bounds


def cluster(points, ids: list[int] | None = None, dist=None) -> Dendrogram:
    """Agglomerate points (in sequence order) to a single cluster.

    Parameters
    ----------
    points : (n, dims) array
        Factor coordinates per document, chronologically ordered.  Full
        dimensionality is intended; pass a column slice to explore planar
        sub-spaces.
    ids : optional document ids for the leaves (defaults to 0..n-1).
    dist : optional condensed distances of the points, as returned by
        :func:`pdist`; computed when omitted.

    Returns a :class:`Dendrogram` with exactly n-1 merges whose heights are
    non-decreasing and whose clusters are contiguous intervals.
    """
    pts = _validate_points(points)
    n = len(pts)
    if n < 2:
        raise DimensionMismatch("need at least 2 points to cluster")
    ids = list(range(n)) if ids is None else list(ids)
    if len(ids) != n:
        raise DimensionMismatch("ids length does not match points")
    dist = pdist(pts) if dist is None else _condensed(dist, n)
    # d(i, j > i) is dist[base[i] + j], and the loop reads only blocks with
    # every row of a before every row of b
    rows = np.arange(n)
    base = rows * (2 * n - rows - 1) // 2 - rows - 1
    merges, intervals, _ = _agglomerate(
        lambda a, b: dist[base[a, None] + np.arange(b.start, b.stop)], n
    )
    return Dendrogram(leaves=ids, merges=merges, intervals=intervals)


def to_newick(dendro: Dendrogram) -> str:
    """Ultrametric Newick string; the path between two leaves equals their
    merge height.  Built iteratively so deep (chain-shaped) dendrograms do
    not hit the recursion limit."""
    n = dendro.n_leaves
    reps: dict[int, str] = {i: str(v) for i, v in enumerate(dendro.leaves)}
    height: dict[int, float] = {i: 0.0 for i in range(n)}
    node = n
    for m in dendro.merges:
        bl_left = (m.height - height[m.left]) / 2.0
        bl_right = (m.height - height[m.right]) / 2.0
        reps[node] = f"({reps.pop(m.left)}:{bl_left:.10g},{reps.pop(m.right)}:{bl_right:.10g})"
        height[node] = m.height
        node += 1
    (root,) = reps.values()  # cluster() runs to completion: one root
    return root + ";"


def dendrogram_json_dict(dendro: Dendrogram) -> dict:
    return {
        "leaves": list(dendro.leaves),
        "merges": [{"step": t, **vars(m)} for t, m in enumerate(dendro.merges)],
    }


def dendrogram_csv_rows(dendro: Dendrogram):
    yield ("step", "left", "right", "height")
    for t, m in enumerate(dendro.merges):
        yield (t, m.left, m.right, m.height)
