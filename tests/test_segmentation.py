import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from scipy import sparse

from chronosem import (
    PermTestConfig,
    build_vocabulary,
    fit_ca,
    perm_test,
    project_supplementary_row,
    segment,
    segment_centroids_as_supplementary,
    threshold_matrix,
)
from chronosem import _workers, segmentation
from chronosem.errors import DimensionMismatch
from chronosem.segmentation import SegmentationResult, _coded_matrix, _gate
from helpers import docs_from_rows, scale_corpus_rows, synthetic_corpus_rows, three_blob_points
from oracles import (
    constrained_complete_link_bruteforce,
    exhaustive_perm_p,
    weighted_mean_coords,
)


def far_groups(n_a=3, n_b=3, gap=100.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_a, 2)) * 0.1
    b = rng.standard_normal((n_b, 2)) * 0.1 + gap
    return a, b


class TestPermTest:
    def test_identical_populations_fuse(self):
        # interleave one cluster's points between the two groups, union of 6
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6, 2))
        a, b = pts[::2], pts[1::2]
        res = perm_test(a, b, PermTestConfig(rng_seed=7))
        union = np.vstack([a, b])
        from scipy.spatial.distance import pdist, squareform

        h_ex, p_ex = exhaustive_perm_p(squareform(pdist(union)), len(a))
        assert res.h == h_ex
        assert res.p > 0.15 and p_ex > 0.15
        assert res.decision == "fuse"

    def test_separated_groups_block(self):
        a, b = far_groups(3, 3)
        res = perm_test(a, b, PermTestConfig(rng_seed=7))
        # every 1-coded distance crosses the gap: h is maximal
        assert res.h == 7  # 15 pairs, 7 strictly above the median, all inter
        assert res.p <= 0.15
        assert res.decision == "block"

    def test_two_plus_two_cannot_block_at_default_alpha(self):
        # with |A|=|B|=2 the exhaustive p floor is 2/6: the identity and its
        # complement always match h, so even a huge gap fuses at alpha=0.15
        a = np.array([[0.0], [0.1]])
        b = np.array([[100.0], [100.1]])
        res = perm_test(a, b, PermTestConfig(rng_seed=7))
        assert res.h == 3  # 6 pairwise distances, top half all inter-group
        assert res.p == pytest.approx(1.0 / 3.0, abs=0.02)
        assert res.decision == "fuse"

    def test_alpha_zero_always_fuses(self):
        a, b = far_groups(4, 4)
        res = perm_test(a, b, PermTestConfig(alpha=0.0, rng_seed=3))
        assert res.p > 0.0  # identity relabelling is part of the set
        assert res.decision == "fuse"

    def test_blocks_when_p_equals_alpha(self):
        # fuse iff p > alpha: a p exactly at alpha blocks
        a, b = far_groups(3, 3)
        p = perm_test(a, b, PermTestConfig(alpha=0.0, n_permutations=20, rng_seed=7)).p
        res = perm_test(a, b, PermTestConfig(alpha=p, n_permutations=20, rng_seed=7))
        assert 0.0 < res.p == p < 1.0
        assert res.decision == "block"

    def test_every_relabelling_after_the_first_is_drawn(self):
        # of two or three relabellings of well-separated groups only the
        # observed first reaches h (a drawn one does with chance 2 in 184,756),
        # and p is that one count over N in float64
        a, b = far_groups(10, 10)
        for seed in range(5):
            for n in (2, 3):
                assert perm_test(a, b, PermTestConfig(n_permutations=n, rng_seed=seed)).p == 1 / n

    def test_degenerate_union_auto_fuses(self):
        res = perm_test([[0.0]], [[99.0]], PermTestConfig(rng_seed=0))
        assert res.degenerate and res.decision == "fuse" and res.p == 1.0

    def test_monte_carlo_tracks_exhaustive(self):
        from scipy.spatial.distance import pdist, squareform

        rng = np.random.default_rng(9)
        for n_a, n_b in [(2, 2), (2, 3), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 6)]:
            pts = rng.standard_normal((n_a + n_b, 3))
            a, b = pts[:n_a], pts[n_a:]
            res = perm_test(a, b, PermTestConfig(n_permutations=5000, rng_seed=11))
            h_ex, p_ex = exhaustive_perm_p(squareform(pdist(pts)), n_a)
            assert res.h == h_ex
            assert abs(res.p - p_ex) <= 0.02

    def test_h_invariant_under_monotone_distance_transform(self):
        from scipy.spatial.distance import pdist, squareform

        rng = np.random.default_rng(4)
        d = squareform(pdist(rng.standard_normal((7, 2))))
        cfg = PermTestConfig(rng_seed=5)
        base = _gate(lambda r, c: d[r, c], cfg, (0, 3, 7))
        for transform in (lambda x: x**2, lambda x: np.sqrt(x), lambda x: 3 + 2 * x):
            res = _gate(lambda r, c: transform(d)[r, c], cfg, (0, 3, 7))
            assert res.h == base.h and res.p == base.p

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            perm_test(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(DimensionMismatch, match="at least one point"):
            perm_test(np.ones((0, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "field, value, match",
        [("alpha", 1.5, "outside"), ("n_permutations", 0, "positive"),
         ("rng_seed", -1, "nonnegative")],
    )
    def test_config_rejects_out_of_range(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            PermTestConfig(**{field: value})


class TestSegment:
    def test_three_blobs_recovered(self):
        pts = three_blob_points()
        res = segment(pts, PermTestConfig(alpha=0.15, rng_seed=0))
        assert [(seg[0], seg[-1]) for seg in res.segments] == [(0, 4), (5, 9), (10, 14)]

    def test_identical_points_single_segment(self):
        pts = np.ones((8, 3))
        res = segment(pts, PermTestConfig(rng_seed=0))
        assert res.n_segments == 1
        assert res.segments[0] == list(range(8))

    def test_alpha_resolution_sweep(self):
        pts = three_blob_points()
        counts = [
            segment(pts, PermTestConfig(alpha=a, n_permutations=2000, rng_seed=0)).n_segments
            for a in (0.0, 0.001, 0.05, 0.15, 0.8)
        ]
        assert counts[0] == 1  # alpha 0: every merge authorized
        assert counts == sorted(counts)  # finer alpha, coarser partition
        assert counts[-1] > 3

    def test_bit_reproducible_with_fixed_seed(self):
        pts = three_blob_points()
        cfg = PermTestConfig(alpha=0.15, n_permutations=1000, rng_seed=99)
        r1 = segment(pts, cfg)
        r2 = segment(pts, cfg)
        assert r1.segments == r2.segments
        assert [(t.h, t.p, t.decision) for t in r1.tests] == [
            (t.h, t.p, t.decision) for t in r2.tests
        ]

    def test_segments_partition_sequence(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((20, 3))
        ids = list(range(1, 21))
        res = segment(pts, PermTestConfig(alpha=0.5, n_permutations=500, rng_seed=1), ids=ids)
        flattened = [i for seg in res.segments for i in seg]
        assert flattened == ids
        for t in res.blocked:
            assert t.p <= 0.5
        for t in res.tests:
            if t.decision == "fuse":
                assert t.p > 0.5

    def test_blocked_records_match_boundaries(self):
        pts = three_blob_points()
        res = segment(pts, PermTestConfig(alpha=0.15, rng_seed=0))
        assert {b.boundary_after for b in res.blocked} == {4, 9}
        for b in res.blocked:
            assert b.p <= 0.15


    def test_gated_proposals_match_bruteforce_oracle(self):
        # the oracle re-proposes from scratch after every merge or block, so
        # this checks the order of gated proposals, not only the outcome
        from scipy.spatial.distance import pdist, squareform

        rng = np.random.default_rng(31)
        for trial in range(50):
            n = int(rng.integers(1, 13))
            # drifting clumps so that some boundaries block
            pts = rng.standard_normal((n, 2)) + 3.0 * (np.arange(n) // 4)[:, None]
            dist = squareform(pdist(pts))
            for alpha in (0.15, 0.5):
                cfg = PermTestConfig(alpha=alpha, n_permutations=200, rng_seed=trial)
                expected = []

                def gate(left, right):
                    members = left + right
                    union = dist[np.ix_(members, members)]
                    res = _gate(
                        lambda r, c: union[r, c],
                        cfg,
                        (len(expected), 0, len(left), len(members)),
                    )
                    expected.append(
                        ((left[0], left[-1]), (right[0], right[-1]), res.h, res.p, res.decision)
                    )
                    return res.decision == "fuse"

                constrained_complete_link_bruteforce(pts, gate)
                res = segment(pts, cfg)
                got = [(t.left_span, t.right_span, t.h, t.p, t.decision) for t in res.tests]
                assert got == expected
                blocked_after = [left[1] for left, *_, d in expected if d == "block"]
                assert [b.boundary_after for b in res.blocked] == blocked_after
                cuts = sorted(b + 1 for b in blocked_after)
                assert res.segments == [
                    list(range(lo, hi)) for lo, hi in zip([0] + cuts, cuts + [n])
                ]

    def test_degenerate_unions_read_no_distances(self, monkeypatch):
        monkeypatch.setattr(_workers, "_default_workers", lambda: 1)
        reads = []
        blocks = segmentation._distance_blocks

        def recorded(pts):
            block = blocks(pts)

            def read(a, b):
                reads.append((a, b))
                return block(a, b)

            return read

        monkeypatch.setattr(segmentation, "_distance_blocks", recorded)
        pts = np.random.default_rng(5).standard_normal((120, 6))
        res = segment(pts, PermTestConfig(alpha=0.15, n_permutations=100, rng_seed=4))
        # a gate reads its union's square block; a link reads two disjoint groups
        unions = [a.stop - a.start for a, b in reads if a == b]
        degenerate = [t for t in res.tests if t.degenerate]
        assert degenerate and min(unions) >= 3
        assert len(unions) == len(res.tests) - len(degenerate)
        assert {(t.h, t.p, t.decision) for t in degenerate} == {(0, 1.0, "fuse")}

    def test_one_point_is_one_segment(self):
        res = segment(np.ones((1, 3)), PermTestConfig(rng_seed=0), ids=[7])
        assert res.segments == [[7]] and res.tests == [] and res.blocked == []
        with pytest.raises(DimensionMismatch):
            segment(np.ones((0, 3)))
        with pytest.raises(DimensionMismatch, match="ids length"):
            segment(np.ones((3, 2)), ids=[1, 2])


def _pool_clouds():
    docs = docs_from_rows(scale_corpus_rows(n_blocks=4))
    tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
    yield "ca_rows", fit_ca(tdm.principal_counts()).row_coords
    rng = np.random.default_rng(8)
    yield "random", rng.standard_normal((120, 6)) + 2.0 * (np.arange(120) // 15)[:, None]


class TestGatePool:
    """The gates computed ahead on forked workers give the inline results."""

    CFG = PermTestConfig(alpha=0.15, n_permutations=300, rng_seed=9)

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Run every segment() below through the pool; returns the worker
        pipe of each result collected."""
        collected = []
        collect = _workers._Pool._collect

        def counted(pool, conn):
            collect(pool, conn)
            collected.append(conn)

        monkeypatch.setattr(_workers._Pool, "_collect", counted)
        return collected

    def _segment(self, monkeypatch, pts, workers):
        monkeypatch.setattr(_workers, "_default_workers", lambda: workers)
        return segment(pts, self.CFG)

    @pytest.mark.parametrize("name, pts", list(_pool_clouds()))
    def test_equal_to_inline_at_any_worker_count(self, monkeypatch, pooled, name, pts):
        inline = self._segment(monkeypatch, pts, 1)
        assert pooled == []
        for workers in (2, 3):
            got = self._segment(monkeypatch, pts, workers)
            assert got.tests == inline.tests  # every BoundaryTest field
            assert got.blocked == inline.blocked
            assert got.segments == inline.segments
        assert len(set(pooled)) == 5  # every worker of both pools (2 + 3) gave results

    def test_wrong_guesses_change_nothing(self, monkeypatch, pooled):
        pts = dict(_pool_clouds())["random"]
        inline = self._segment(monkeypatch, pts, 1)
        cluster_module = sys.modules["chronosem.cluster"]
        n = len(pts)

        def wrong(heights, pos, bounds, k):
            # valid unions of 3..5 points that the loop never proposes next
            return [(i, i + 1, i + 3 + i % 3) for i in range(n - 8, n - 8 - k, -1)]

        monkeypatch.setattr(cluster_module, "_upcoming", wrong)
        got = self._segment(monkeypatch, pts, 2)
        assert pooled  # the workers computed the wrong guesses
        assert got.tests == inline.tests
        assert got.blocked == inline.blocked
        assert got.segments == inline.segments

    def test_no_child_left_after_return_or_raise(self, monkeypatch, pooled):
        pts = dict(_pool_clouds())["random"]
        self._segment(monkeypatch, pts, 2)
        assert pooled and multiprocessing.active_children() == []

        gate = segmentation._gate

        def failing(block, config, key):
            if key[0] == 40:
                raise FloatingPointError("gate 40 failed")
            return gate(block, config, key)

        monkeypatch.setattr(segmentation, "_gate", failing)
        with pytest.raises(FloatingPointError, match="gate 40"):
            self._segment(monkeypatch, pts, 2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_broken_pool(self, monkeypatch, pooled):
        from concurrent.futures.process import BrokenProcessPool

        pts = dict(_pool_clouds())["random"]
        parent, gate = os.getpid(), segmentation._gate

        def dying(block, config, key):
            if os.getpid() != parent:
                os._exit(1)
            return gate(block, config, key)

        monkeypatch.setattr(segmentation, "_gate", dying)
        with pytest.raises(BrokenProcessPool):
            self._segment(monkeypatch, pts, 2)
        assert multiprocessing.active_children() == []

    def test_no_fork_while_another_thread_runs(self, monkeypatch, pooled):
        pts = dict(_pool_clouds())["random"]
        inline = self._segment(monkeypatch, pts, 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = self._segment(monkeypatch, pts, 2)
        finally:
            release.set()
            other.join()
        assert pooled == []  # computed inline
        assert got.tests == inline.tests

    def test_workers_exit_when_the_loop_process_dies(self):
        # the worker processes inherit the write end of a pipe; it reads end
        # of file once the killed loop process and every worker have exited
        script = textwrap.dedent("""
            import sys, time
            import numpy as np
            from chronosem import _workers as W, segmentation as S
            W._default_workers = lambda: 2
            call = W._Pool.__call__
            def stalled(pool, key, ahead):
                if key[0] == 30:
                    print("running", flush=True)
                    time.sleep(120)
                return call(pool, key, ahead)
            W._Pool.__call__ = stalled
            pts = np.random.default_rng(8).standard_normal((120, 6))
            S.segment(pts, S.PermTestConfig(n_permutations=300))
        """)
        src = os.path.dirname(os.path.dirname(segmentation.__file__))
        read_end, write_end = os.pipe()
        loop = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, pass_fds=(write_end,),
            env={**os.environ, "PYTHONPATH": src},
        )
        os.close(write_end)
        try:
            assert loop.stdout.readline() == b"running\n"
            loop.send_signal(signal.SIGKILL)
            loop.wait(10)
            assert select.select([read_end], [], [], 10)[0], "a gate worker outlived its loop"
            assert os.read(read_end, 1) == b""
        finally:
            loop.kill()
            loop.stdout.close()
            os.close(read_end)

    def test_daemon_process_computes_inline(self, monkeypatch, pooled):
        # a daemon process may not start children, so its gates run inline
        pts = dict(_pool_clouds())["random"]
        inline = self._segment(monkeypatch, pts, 1)
        monkeypatch.setattr(_workers, "_default_workers", lambda: 2)
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        child = ctx.Process(
            target=lambda: there.send(segment(pts, self.CFG).tests), daemon=True
        )
        child.start()
        assert here.poll(60)
        assert here.recv() == inline.tests
        child.join(10)
        assert child.exitcode == 0


class TestCodedMatrix:
    def test_ties_at_median_match_condensed_coding(self):
        from scipy.spatial.distance import squareform

        rng = np.random.default_rng(6)
        for m in (3, 4, 7, 12):
            # integer distances: many pairs tie with the median
            block = squareform(rng.integers(1, 4, size=m * (m - 1) // 2).astype(float))
            condensed = squareform(block, checks=False)
            median = np.median(condensed)
            assert np.any(condensed == median)
            expected = squareform((condensed > median).astype(float), checks=False)
            before = block.copy()
            block.flags.writeable = False
            assert np.array_equal(_coded_matrix(block), expected)
            assert np.array_equal(block, before)


class TestSegmentCentroids:
    def _corpus_model(self):
        rows = synthetic_corpus_rows()
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
        counts = np.asarray(tdm.principal_counts().todense())
        model = fit_ca(counts)
        return counts, model

    def test_segment_aggregate_projects_to_weighted_member_mean(self):
        counts, model = self._corpus_model()
        res = segment(
            model.row_coords, PermTestConfig(n_permutations=500, rng_seed=2),
        )
        offset = 0
        for seg in res.segments:
            members = list(range(offset, offset + len(seg)))
            offset += len(seg)
            agg = counts[members].sum(axis=0)
            proj = project_supplementary_row(model, agg)
            oracle = weighted_mean_coords(model.row_coords, model.row_masses, members)
            assert np.allclose(proj, oracle, atol=1e-9)

    def test_forty_segments_four_singletons_layout(self):
        rng = np.random.default_rng(3)
        sizes = [2] * 40
        for k in (5, 17, 35, 38):  # 6th, 18th, 36th, 39th segments
            sizes[k] = 1
        n_docs = sum(sizes)
        counts = rng.integers(0, 3, size=(n_docs, 30))
        counts[:, 0] += 1  # no empty rows
        segments, start = [], 0
        for s in sizes:
            segments.append(list(range(start, start + s)))
            start += s
        res = SegmentationResult(segments=segments, tests=[])
        fmap = segment_centroids_as_supplementary(res, counts)
        assert int((~fmap.supplementary).sum()) == 36
        assert int(fmap.supplementary.sum()) == 4
        assert fmap.model.row_coords.shape[0] == 36
        assert np.all(np.isfinite(fmap.coords[fmap.supplementary]))
        assert np.flatnonzero(fmap.supplementary).tolist() == [5, 17, 35, 38]

    @pytest.mark.parametrize("rows", [2, 4])
    def test_counts_need_one_row_per_document(self, rows):
        res = SegmentationResult(segments=[[0, 1], [2]], tests=[])
        with pytest.raises(DimensionMismatch, match=f"{rows} rows for 3"):
            segment_centroids_as_supplementary(res, np.ones((rows, 2)))

    def test_single_segment_centroid_is_origin(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(1, 4, size=(6, 8))
        res = SegmentationResult(segments=[list(range(6))], tests=[])
        fmap = segment_centroids_as_supplementary(res, counts)
        assert fmap.coords.shape[0] == 1
        assert float(np.linalg.norm(fmap.coords)) == 0.0

    def test_all_singletons_are_all_active(self, monkeypatch):
        # every segment a singleton: none is held out, and the fit runs on
        # the documents' own rows, less the columns no document uses
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 4, size=(9, 10))
        counts[:, 0] += 1
        counts[:, 3] = 0
        counts[0, 0] = 2**24 + 1  # past float32's exact integers: not rounded
        res = SegmentationResult(segments=[[k] for k in range(9)], tests=[])
        fitted = []
        fit = segmentation.ca.fit_ca
        monkeypatch.setattr(segmentation.ca, "fit_ca", lambda t: fitted.append(t) or fit(t))
        fmap = segment_centroids_as_supplementary(res, counts)
        assert not fmap.supplementary.any()
        kept = np.flatnonzero(counts.sum(axis=0) > 0)
        assert np.array_equal(fmap.kept_cols, kept)
        assert np.array_equal(fitted[0].toarray(), counts[:, kept].astype(float))
        assert np.array_equal(fmap.coords, fmap.model.row_coords)

    def test_singleton_outside_active_columns_is_nan(self):
        # the singleton's terms all vanish from the active segments' columns
        rng = np.random.default_rng(8)
        sizes = [3, 1, 4, 2]
        counts = rng.integers(0, 4, size=(sum(sizes), 8))
        counts[:, 0] += 1
        counts[:, 6:] = 0
        counts[3] = 0
        counts[3, 6:] = [2, 5]  # document 3 is segment 1, a singleton
        bounds = np.cumsum([0] + sizes)
        res = SegmentationResult(
            segments=[list(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])],
            tests=[],
        )
        fmap = segment_centroids_as_supplementary(res, counts)
        assert fmap.supplementary.tolist() == [False, True, False, False]
        assert fmap.kept_cols.tolist() == list(range(6))
        assert np.isnan(fmap.coords[1]).all()
        assert np.isfinite(fmap.coords[[0, 2, 3]]).all()

    def _segments(self, sizes):
        bounds = np.cumsum([0] + sizes)
        return SegmentationResult(
            segments=[list(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])],
            tests=[],
        )

    def test_column_used_once_by_active_segments_is_kept(self):
        rng = np.random.default_rng(10)
        counts = rng.integers(0, 4, size=(9, 8))
        counts[:, 0] += 1
        counts[:, 7] = 0
        counts[4, 7] = 1  # one occurrence, in segment 1 of sizes 3, 2, 1, 3
        fmap = segment_centroids_as_supplementary(self._segments([3, 2, 1, 3]), counts)
        assert fmap.supplementary.tolist() == [False, False, True, False]
        assert fmap.kept_cols.tolist() == list(range(8))

    def test_singleton_with_one_kept_occurrence_is_projected(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 4, size=(8, 6))
        counts[:, 0] += 1
        counts[3] = 0
        counts[3, 2] = 1  # document 3 is segment 1, a singleton
        fmap = segment_centroids_as_supplementary(self._segments([3, 1, 4]), counts)
        assert fmap.supplementary.tolist() == [False, True, False]
        assert fmap.kept_cols.tolist() == list(range(6))
        expected = project_supplementary_row(fmap.model, counts[3].astype(float))
        assert np.isfinite(fmap.coords[1]).all()
        assert np.allclose(fmap.coords[1], expected, atol=1e-12)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_segment_sums_equal_dense_sums(self, monkeypatch, layout):
        rng = np.random.default_rng(6)
        sizes = [3, 1, 5, 2, 1, 7, 4, 1, 6]
        counts = rng.integers(0, 4, size=(sum(sizes), 12))
        counts[:, 0] += 1
        counts[:, 5] = 0  # a term no segment uses
        bounds = np.cumsum([0] + sizes)
        res = SegmentationResult(
            segments=[list(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])],
            tests=[],
        )
        dense_sums = np.array(
            [np.asarray(counts, dtype=float)[a:b].sum(axis=0)
             for a, b in zip(bounds[:-1], bounds[1:])]
        )
        fitted = []
        fit = segmentation.ca.fit_ca
        monkeypatch.setattr(segmentation.ca, "fit_ca", lambda t: fitted.append(t) or fit(t))
        table = sparse.csr_matrix(counts) if layout == "csr" else counts
        fmap = segment_centroids_as_supplementary(res, table)
        single = np.array(sizes) == 1
        assert np.array_equal(fmap.supplementary, single)
        kept = np.flatnonzero(dense_sums[~single].sum(axis=0) > 0)
        assert np.array_equal(fmap.kept_cols, kept)
        assert np.array_equal(fitted[0].toarray(), dense_sums[~single][:, kept])
        for k in np.flatnonzero(single):
            expected = project_supplementary_row(fmap.model, dense_sums[k, kept])
            assert np.array_equal(fmap.coords[k], expected)
