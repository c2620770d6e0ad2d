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

import select
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial.distance import squareform

from . import ca
from .cluster import _agglomerate, _default_workers, _distance_blocks, _validate_points, pdist
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

    @property
    def singleton_segments(self) -> list[int]:
        return [seg[0] for seg in self.segments if len(seg) == 1]


def _coded_matrix(dist_matrix: np.ndarray) -> np.ndarray:
    """0/1 matrix coding each pairwise distance; the half strictly above the
    median is 1 (ties at the median conservatively 0).

    The median is taken over the sorted condensed pairs (the middle pair, or
    the mean of the two middle pairs, as ``np.median`` returns it) and the
    square matrix is coded directly; its zero diagonal codes 0.
    ``dist_matrix`` is symmetric and is only read, as it may be a view of a
    shared read-only matrix.
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
    m = dist_matrix.shape[0]
    if m < 3:
        # no meaningful split of fewer than 3 objects: fuse, flagged
        return PermTestResult(h=0, p=1.0, decision=FUSE, degenerate=True)
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


# a gate is named by its key (start, split, stop, t): the union
# start..stop-1 of two adjacent groups split before `split`, tested as the
# t-th gate of the run, which seeds its draws with (rng_seed, t)
GateKey = tuple[int, int, int, int]

_LOOKAHEAD = 8  # predicted proposals offered to the workers at each gate
_DEPTH = 2  # gates handed to one worker and not yet collected
# below this many draws ((n - 1) gates at most, times the permutations) the
# forks cost more than they save: on 2 cores the pool was slower at 500
# points, even at 1k and faster at 2k, at 5000 permutations
_POOL_MIN_DRAWS = 5_000_000


def _gate(block: Callable, config: PermTestConfig, key: GateKey) -> PermTestResult:
    start, split, stop, t = key
    union = slice(start, stop)
    seed_seq = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(t,))
    return _test_from_distances(block(union, union), split - start, config, seed_seq)


def _serve_gates(conn, parent_ends: list, block: Callable, config: PermTestConfig) -> None:
    """A worker process: compute the gate of each key received, send back
    ``(key, result)``; an exception is sent back as the result.

    The fork copied the loop's ends of the pipes made so far, this
    worker's own among them; closing them lets the worker see end of file,
    and exit, when the loop's process dies.
    """
    for end in parent_ends:
        end.close()
    while True:
        try:
            key = conn.recv()
        except (EOFError, OSError):  # the loop's process is gone
            return
        try:
            result = _gate(block, config, key)
        except Exception as exc:
            result = exc
        try:
            conn.send((key, result))
        except OSError:
            return


class _GatePool:
    """Forked workers that compute the gates the merge loop will most
    likely propose next, while the loop waits for or computes the current
    one.

    A result is used only for a proposal with exactly its key, so a wrong
    guess wastes a worker's time and changes no result.  A worker that
    dies raises ``BrokenProcessPool`` in the loop.
    """

    def __init__(self, block: Callable, config: PermTestConfig, workers: int, ctx):
        self.block, self.config = block, config
        self.conns, self.fds, self.procs = [], [], []
        self.sent: list[list[GateKey]] = []  # per worker, oldest first
        self.done: dict[GateKey, object] = {}
        for _ in range(workers):
            here, there = ctx.Pipe()
            ends = [*self.conns, here]
            proc = ctx.Process(target=_serve_gates, args=(there, ends, block, config), daemon=True)
            proc.start()
            there.close()
            self.conns.append(here)
            self.fds.append(here.fileno())
            self.procs.append(proc)
            self.sent.append([])

    def _collect(self, w: int) -> None:
        """Receive worker w's oldest outstanding result."""
        try:
            key, result = self.conns[w].recv()
        except (EOFError, OSError):
            raise _broken() from None
        self.sent[w].remove(key)
        self.done[key] = result

    def _send(self, w: int, key: GateKey) -> None:
        try:
            self.conns[w].send(key)
        except OSError:
            raise _broken() from None
        self.sent[w].append(key)

    def _ready(self, timeout) -> list[int]:
        """The workers with a finished result, waiting up to ``timeout``."""
        busy = [f for f, sent in zip(self.fds, self.sent) if sent]
        return [self.fds.index(f) for f in select.select(busy, [], [], timeout)[0]]

    def _top_up(self, guesses: list[GateKey]) -> None:
        """Hand out the first guesses no worker holds, the least busy worker
        first, so each keeps ``_DEPTH`` gates."""
        for guess in guesses:
            w = min(range(len(self.sent)), key=lambda i: len(self.sent[i]))
            if len(self.sent[w]) == _DEPTH:
                return
            if guess not in self.done and all(guess not in sent for sent in self.sent):
                self._send(w, guess)

    def __call__(self, key: GateKey, ahead: Callable[[], list[GateKey]]) -> PermTestResult:
        guesses = None

        def collect(timeout) -> None:
            """Collect the finished results, then hand out guesses to the
            workers with room; a worker whose queue holds only stale
            guesses is thus fed again."""
            nonlocal guesses
            for w in self._ready(timeout):
                self._collect(w)
            if any(len(sent) < _DEPTH for sent in self.sent):
                if guesses is None:
                    # degenerate unions are cheaper to compute inline
                    guesses = [g for g in ahead() if g[2] - g[0] >= 3]
                self._top_up(guesses)

        collect(0)
        self.done = {k: r for k, r in self.done.items() if k[3] >= key[3]}
        while key not in self.done and any(key in sent for sent in self.sent):
            collect(None)
        result = self.done.pop(key) if key in self.done else _gate(self.block, self.config, key)
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()
            proc.close()


def _broken() -> Exception:
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool("a permutation gate worker process died")


@contextmanager
def _gate_solver(block: Callable, n: int, config: PermTestConfig):
    """``solve(key, ahead)``: the gate of ``key``; ``ahead()`` lists the
    keys of the proposals most likely to follow.

    It is a :class:`_GatePool` of ``_default_workers()`` forked processes,
    or every gate computed inline: with one worker, for fewer than
    ``_POOL_MIN_DRAWS`` draws over the n points, without ``fork``, when
    another thread is alive (a fork then risks a deadlock) or in a daemon
    process.  The results are the same either way.  The workers are
    stopped when the block exits, however it exits.
    """
    import multiprocessing  # imported here, so the CLI's start-up does not pay for it

    workers = _default_workers()
    if (
        workers == 1
        or (n - 1) * config.n_permutations < _POOL_MIN_DRAWS
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon  # may not have children
    ):
        yield lambda key, ahead: _gate(block, config, key)
        return
    pool = _GatePool(block, config, workers, multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.close()


def segment(
    points,
    config: PermTestConfig = PermTestConfig(),
    ids: list[int] | None = None,
    dist=None,
) -> SegmentationResult:
    """Split a chronological point sequence into homogeneous segments.

    Runs the constrained complete-link agglomeration, gating every proposed
    merge with :func:`perm_test`.  Blocked boundaries are permanent; when
    the lowest pair is blocked the next-lowest authorizable pair is tried,
    and the procedure stops once every remaining adjacency is blocked.
    Reproducible bit-for-bit for a fixed ``config.rng_seed``: test t draws
    its permutations from an independently seeded stream (seed, t), so
    replicates may be evaluated in parallel without changing decisions.
    ``dist`` is an optional (n, n) distance matrix of the points, as built
    by :func:`chronosem.cluster.distance_matrix`.  Without it no matrix is
    built: the links and gates compute only the distance blocks they read,
    with the same bits the matrix would hold.
    """
    pts = _validate_points(points)
    n = len(pts)
    if n == 0:
        raise DimensionMismatch("need at least 1 point to segment")
    ids = list(range(n)) if ids is None else list(ids)
    if len(ids) != n:
        raise DimensionMismatch("ids length does not match points")
    block = _distance_blocks(pts, dist)
    tests: list[BoundaryTest] = []

    def gate(left: range, right: range, upcoming) -> bool:
        t = len(tests)
        res = solve(
            (left.start, right.start, right.stop, t),
            lambda: [(*span, u) for u, span in enumerate(upcoming(_LOOKAHEAD), start=t + 1)],
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

    with _gate_solver(block, n, config) as solve:
        _, _, spans = _agglomerate(block, n, gate)
    return SegmentationResult(
        segments=[ids[start : end + 1] for start, end in spans],
        blocked=[t for t in tests if t.decision == BLOCK],
        tests=tests,
        config=config,
    )


@dataclass
class SegmentFactorMap:
    """Fresh factor space over segments-by-terms aggregates.

    ``coords[k]`` holds segment k's coordinates; singleton segments (under
    the "supplementary" policy) are zero-mass projections and are flagged in
    ``supplementary``.  A singleton whose terms all vanish from the active
    column set gets NaN coordinates.
    """

    coords: np.ndarray  # (n_segments, S)
    supplementary: np.ndarray  # bool per segment
    model: ca.CAModel
    kept_cols: np.ndarray  # indices into the original term columns


def segment_centroids_as_supplementary(
    result: SegmentationResult,
    counts,
    singleton_policy: str = "supplementary",
) -> SegmentFactorMap:
    """Map segments into a fresh factor space built from their term totals.

    Each segment's member count rows are summed into one aggregate profile.
    Under ``singleton_policy="supplementary"`` single-document segments are
    held out of the decomposition (they could distort it) and projected
    afterwards with zero mass; ``"principal"`` keeps every segment active.
    ``counts`` must hold one row per clustered document, in sequence order;
    it is summed in CSR form (a dense table is converted), never densified.
    """
    if singleton_policy not in ("supplementary", "principal"):
        raise ValueError(f"unknown singleton_policy {singleton_policy!r}")
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

    is_single = sizes == 1
    if singleton_policy == "principal" or bool(np.all(is_single)):
        supplementary = np.zeros(result.n_segments, dtype=bool)
    else:
        supplementary = is_single

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
