import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from chronosem import _workers, cluster, cut, to_newick
from chronosem.cluster import dendrogram_csv_rows, dendrogram_json_dict
from chronosem.errors import DimensionMismatch, InvalidK
from oracles import constrained_complete_link_bruteforce

cluster_module = importlib.import_module("chronosem.cluster")

LINE = np.array([[0.0], [1.0], [10.0]])


def merge_intervals(dendro):
    """(left interval, right interval, height) per merge, via the id map."""
    out = []
    for m in dendro.merges:
        out.append((dendro.intervals[m.left], dendro.intervals[m.right], m.height))
    return out


class TestCluster:
    def test_line_example(self):
        dendro = cluster(LINE)
        got = merge_intervals(dendro)
        assert got[0] == ((0, 0), (1, 1), 1.0)
        assert got[1] == ((0, 1), (2, 2), 10.0)

    def test_identical_adjacent_points_merge_at_zero(self):
        dendro = cluster(np.array([[3.0, 1.0], [3.0, 1.0], [9.0, 9.0]]))
        assert dendro.merges[0].height == 0.0

    def test_matches_bruteforce_n5(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((5, 3))
        got = merge_intervals(cluster(pts))
        expected = constrained_complete_link_bruteforce(pts)
        for (gl, gr, gh), (el, er, eh) in zip(got, expected):
            assert gl == (el[0], el[-1])
            assert gr == (er[0], er[-1])
            assert gh == pytest.approx(eh, abs=1e-12)

    def test_contiguity_and_monotone_heights(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            pts = rng.standard_normal((n, int(rng.integers(1, 5))))
            dendro = cluster(pts)
            assert len(dendro.merges) == n - 1
            heights = dendro.heights()
            assert np.all(np.diff(heights) >= 0)
            for m in dendro.merges:
                (ls, le) = dendro.intervals[m.left]
                (rs, re) = dendro.intervals[m.right]
                assert rs == le + 1  # adjacency
            assert dendro.intervals[max(dendro.intervals)] == (0, n - 1)

    def test_reversed_sequence_mirrors(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((8, 2))
        fwd = cluster(pts)
        rev = cluster(pts[::-1])
        n = len(pts)
        fwd_merges = merge_intervals(fwd)
        rev_merges = merge_intervals(rev)
        for (fl, fr, fh), (rl, rr, rh) in zip(fwd_merges, rev_merges):
            assert fh == pytest.approx(rh, abs=1e-12)
            # mirrored positions: interval (a, b) maps to (n-1-b, n-1-a)
            assert rl == (n - 1 - fr[1], n - 1 - fr[0])
            assert rr == (n - 1 - fl[1], n - 1 - fl[0])

    def test_tie_break_earliest_pair(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])  # all gaps equal
        dendro = cluster(pts)
        assert dendro.intervals[dendro.merges[0].left] == (0, 0)
        assert dendro.intervals[dendro.merges[0].right] == (1, 1)

    def test_reads_condensed_distances_as_the_square(self):
        pts = np.random.default_rng(7).standard_normal((150, 4))
        square = squareform(pdist(pts))
        merges, intervals, bounds = cluster_module._agglomerate(
            lambda a, b: square[a, b], len(pts)
        )
        dendro = cluster(pts, dist=cluster_module.pdist(pts))
        assert dendro.merges == merges
        assert dendro.intervals == intervals
        assert bounds == [0, len(pts)]

    def test_builds_no_square_matrix(self):
        pts = np.random.default_rng(8).standard_normal((1200, 5))
        dist = cluster_module.pdist(pts)
        tracemalloc.start()
        try:
            cluster(pts, dist=dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(pts) ** 2 * 8  # one n-by-n float64 array

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionMismatch):
            cluster(np.array([[np.nan], [1.0]]))
        with pytest.raises(DimensionMismatch):
            cluster(np.ones((1, 2)))


class TestCut:
    def test_k1_single_segment(self):
        dendro = cluster(LINE)
        assert cut(dendro, 1) == [[0, 1, 2]]

    def test_kn_singletons(self):
        dendro = cluster(LINE)
        assert cut(dendro, 3) == [[0], [1], [2]]

    def test_line_k2(self):
        dendro = cluster(LINE)
        assert cut(dendro, 2) == [[0, 1], [2]]

    def test_segments_cover_sequence(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((9, 2))
        ids = list(range(100, 109))
        dendro = cluster(pts, ids=ids)
        for k in range(1, 10):
            segs = cut(dendro, k)
            assert len(segs) == k
            assert [i for seg in segs for i in seg] == ids

    def test_invalid_k(self):
        dendro = cluster(LINE)
        for k in (0, 4, -1):
            with pytest.raises(InvalidK):
                cut(dendro, k)


class TestExports:
    def test_newick_line_example(self):
        dendro = cluster(LINE)
        nwk = to_newick(dendro)
        assert nwk == "((0:0.5,1:0.5):4.5,2:5);"

    def test_newick_handles_deep_chains(self):
        # strictly widening 1-d chain agglomerates leaf by leaf
        pts = np.cumsum(np.linspace(1.0, 3.0, 2000))[:, None]
        nwk = to_newick(cluster(pts))
        assert nwk.endswith(";") and nwk.count("(") == 1999

    def test_json_and_csv_shapes(self):
        dendro = cluster(LINE, ids=[11, 12, 13])
        payload = dendrogram_json_dict(dendro)
        assert payload["leaves"] == [11, 12, 13]
        assert len(payload["merges"]) == 2
        rows = list(dendrogram_csv_rows(dendro))
        assert rows[0] == ("step", "left", "right", "height")
        assert len(rows) == 3


class TestDistanceMatrix:
    @pytest.mark.parametrize(
        "shape, cols",
        [
            ((2, 3), slice(None)),  # one pair
            ((10, 4), slice(None)),  # fewer rows than stripes
            ((300, 20), slice(None)),  # every stripe holds rows
            ((200, 6), slice(0, 2)),  # the non-contiguous plane view
        ],
    )
    def test_any_worker_count_equals_scipy(self, monkeypatch, shape, cols):
        pts = np.random.default_rng(shape[0]).standard_normal(shape)[:, cols]
        built = []
        for workers in (1, 2):
            monkeypatch.setattr(cluster_module, "_default_workers", lambda w=workers: w)
            built.append(cluster_module.pdist(pts))
        cond1, cond2 = built
        assert np.array_equal(cond1, cond2)
        assert np.array_equal(cond1, pdist(pts))

    def test_read_only(self):
        pts = np.random.default_rng(0).standard_normal((40, 3))
        dist = cluster_module.pdist(pts)
        assert not dist.flags.writeable
        with pytest.raises(ValueError):
            dist[1] = 0.0

    @pytest.mark.parametrize(
        "affinity, cpu_count, workers",
        [({0}, 8, 1), (set(range(3)), 8, 3), (set(range(16)), 16, 4), (None, 2, 2)],
    )
    def test_worker_count_capped_by_affinity_and_four(
        self, monkeypatch, affinity, cpu_count, workers
    ):
        if affinity is None:  # a platform without sched_getaffinity
            monkeypatch.delattr(_workers.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(_workers.os, "cpu_count", lambda: cpu_count)
        assert _workers._default_workers() == workers

    @pytest.mark.parametrize("shape, cols", [((60, 50), slice(None)), ((40, 6), slice(0, 2))])
    def test_blocks_equal_matrix_bit_for_bit(self, shape, cols):
        rng = np.random.default_rng(shape[1])
        pts = rng.standard_normal(shape)[:, cols]
        square = squareform(pdist(pts))
        block = cluster_module._distance_blocks(pts)
        n = len(pts)
        pairs = [
            (slice(3, 4), slice(4, 5)),  # one adjacent pair
            (slice(0, n), slice(0, n)),  # the whole matrix
            (slice(5, 5), slice(0, 9)),  # an empty slice
            (slice(7, 8), slice(0, n)),  # one row against all
        ]
        for _ in range(30):
            a, b, c, d = sorted(rng.integers(0, n + 1, size=4).tolist())
            pairs += [(slice(a, b), slice(c, d)), (slice(c, d), slice(a, b))]
        for a, b in pairs:
            got = block(a, b)
            assert got.shape == square[a, b].shape
            assert np.array_equal(got, square[a, b])

    def test_given_matrix_is_used_and_checked(self):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        dendro = cluster(pts, dist=cluster_module.pdist(pts))
        assert dendro.heights().tolist() == cluster(pts).heights().tolist()
        with pytest.raises(DimensionMismatch):
            cluster(pts, dist=cluster_module.pdist(pts[:-1]))
