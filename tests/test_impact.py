import math
import tracemalloc

import numpy as np
import pytest

from chronosem import (
    build_impact_report,
    build_vocabulary,
    cluster,
    drilldown,
    fit_ca,
    merge_adjacent_initiating,
    pairwise_distance_stats,
    project_supplementary_row,
    row_contributions,
    significance,
    threshold_matrix,
)
from chronosem import impact
from chronosem.errors import DegenerateSpread, DimensionMismatch, EmptyCampaign
from chronosem.impact import PairwiseStats, _sum_squared_deviations
from helpers import docs_from_rows, scale_corpus_rows, synthetic_corpus_rows
from oracles import weighted_mean_coords

# published impact arithmetic: distance, mean, mean - stdev of the pairwise
# distance distribution
D_FULL = 3.670904
MEAN = 12.64907
MEAN_MINUS_STDEV = 8.508712
STDEV = MEAN - MEAN_MINUS_STDEV


def fitted_corpus(**kwargs):
    rows = synthetic_corpus_rows(**kwargs)
    docs = docs_from_rows(rows)
    tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
    model = fit_ca(tdm.principal_counts())
    return tdm, model


class TestSignificance:
    def test_reference_arithmetic(self):
        z, tail = significance(D_FULL, MEAN, STDEV)
        assert z == pytest.approx(-2.168451, abs=1e-5)
        assert tail == pytest.approx(3.01, abs=0.02)  # two-sided ~3%, one-sided 1.5%
        assert MEAN - 2 * STDEV == pytest.approx(4.368352, abs=5e-6)

    def test_distance_at_mean(self):
        z, tail = significance(MEAN, MEAN, STDEV)
        assert z == 0.0
        assert tail == pytest.approx(100.0, abs=1e-9)

    def test_degenerate_spread(self):
        with pytest.raises(DegenerateSpread):
            significance(1.0, 1.0, 0.0)

    def test_pure_function(self):
        assert significance(D_FULL, MEAN, STDEV) == significance(D_FULL, MEAN, STDEV)


class TestPairwiseStats:
    def test_population_moments(self):
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((12, 3))
        stats = pairwise_distance_stats(coords)
        dists = [
            np.linalg.norm(coords[i] - coords[k])
            for i in range(12)
            for k in range(i + 1, 12)
        ]
        assert stats.n_pairs == len(dists)
        assert stats.mean == pytest.approx(np.mean(dists), abs=1e-12)
        assert stats.stdev == pytest.approx(np.std(dists), abs=1e-12)

    def test_percent_below(self):
        stats = pairwise_distance_stats(np.array([[0.0], [1.0], [3.0]]))
        # distances: 1, 2, 3
        assert stats.percents_below([2.5])[0] == pytest.approx(100 * 2 / 3)
        assert stats.percents_below([0.5])[0] == 0.0

    def test_percent_below_equals_sorted_search(self):
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(3)
        for n in (2, 5, 30):
            pts = rng.integers(0, 3, size=(n, 2)).astype(float)
            pts[-1] = pts[0]  # a duplicate point: a zero distance
            stats = pairwise_distance_stats(pts)
            ordered = np.sort(pdist(pts))
            probes = np.concatenate((ordered, ordered + 0.5, [-1.0, 0.0]))
            for d in probes:
                below = np.searchsorted(ordered, d, side="left")
                assert stats.percents_below([d])[0] == 100.0 * below / stats.n_pairs

    def test_percents_below_equals_one_search_per_distance(self):
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(4)
        for n in (2, 6, 40):
            pts = rng.integers(0, 3, size=(n, 2)).astype(float)
            pts[-1] = pts[0]
            stats = pairwise_distance_stats(pts)
            ordered = np.sort(pdist(pts))
            probes = np.concatenate((ordered[::3], ordered[::2] + 0.25, [-1.0, 0.0]))
            probes = rng.permutation(np.concatenate((probes, probes[:4])))  # repeats
            expected = [
                100.0 * np.searchsorted(ordered, d, side="left") / stats.n_pairs
                for d in probes
            ]
            assert stats.percents_below(probes).tolist() == expected
            assert stats.percents_below([]).tolist() == []

    def test_percents_below_across_count_blocks(self, monkeypatch):
        from chronosem import impact as impact_module

        coords = np.random.default_rng(6).standard_normal((60, 3))
        stats = pairwise_distance_stats(coords)
        probes = np.quantile(stats.distances, [0.9, 0.1, 0.5, 0.5])
        whole = stats.percents_below(probes)
        monkeypatch.setattr(impact_module, "_COUNT_BLOCK", 7)
        assert np.array_equal(stats.percents_below(probes), whole)

    def test_moments_equal_condensed_pdist_bit_for_bit(self):
        from scipy.spatial.distance import pdist

        from chronosem.cluster import pdist as threaded_pdist

        coords = np.random.default_rng(5).standard_normal((250, 4))
        condensed = pdist(coords)
        for dist in (None, threaded_pdist(coords)):
            stats = pairwise_distance_stats(coords, dist)
            assert stats.mean == float(condensed.mean())
            assert stats.stdev == float(condensed.std())
            assert np.array_equal(stats.distances, condensed)
            assert dist is None or stats.distances is dist  # used without a copy

    # around numpy's 8-accumulator block (128), its buffer (8192), the
    # block squared at a time (65536) and the 1k and 3k corpora's pair counts
    @pytest.mark.parametrize("n", [*range(1, 21), 127, 128, 129, 8191, 8192, 65535,
                                   65536, 65537, 131080, 479_710, 4_321_330])
    def test_blocked_stdev_equals_numpy_std(self, n):
        x = np.random.default_rng(n).random(n) * 7.0
        mean = x.mean()
        assert math.sqrt(_sum_squared_deviations(x, mean) / n) == float(x.std())

    def test_stdev_needs_no_copy_of_the_distances(self):
        from chronosem.cluster import pdist

        coords = np.random.default_rng(12).standard_normal((1000, 5))
        dist = pdist(coords)
        tracemalloc.start()
        try:
            stats = pairwise_distance_stats(coords, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.stdev == float(dist.std())
        assert peak < dist.nbytes / 4

    @pytest.mark.parametrize("form", ["short", "long", "square"])
    def test_wrong_distances_rejected(self, form):
        from scipy.spatial.distance import pdist, squareform

        tdm, model = fitted_corpus()
        coords = model.row_coords
        dist = {
            "short": pdist(coords[:-1]),
            "long": pdist(np.vstack([coords, coords[:1]])),
            "square": squareform(pdist(coords)),  # an (n, n) matrix
        }[form]
        for call in (
            lambda: cluster(coords, dist=dist),
            lambda: pairwise_distance_stats(coords, dist),
            lambda: build_impact_report(tdm, model, dist),
        ):
            with pytest.raises(DimensionMismatch):
                call()

    def test_distances_are_required(self):
        with pytest.raises(TypeError):
            PairwiseStats(mean=0.0, stdev=1.0, n_pairs=1)


class TestImpactDistance:
    def test_plane_never_exceeds_full(self):
        tdm, model = fitted_corpus()
        report = build_impact_report(tdm, model)
        assert report.campaigns, "expected campaign records"
        for c in report.campaigns:
            assert c.distance_plane <= c.distance_full + 1e-12


class TestImpactReport:
    def test_report_fields_and_ranking_rotation_invariance(self):
        tdm, model = fitted_corpus()
        report = build_impact_report(tdm, model)
        assert {c.campaign for c in report.campaigns} == set(tdm.campaign_ids)
        for c in report.campaigns:
            z, tail = significance(
                c.distance_full, report.mean_pairwise, report.stdev_pairwise
            )
            assert c.z_score == pytest.approx(z, abs=1e-12)
            assert c.one_sided_tail_percent == pytest.approx(tail / 2, abs=1e-12)
            assert 0.0 <= c.percent_pairs_below <= 100.0
        # distances (hence ranking) survive any orthogonal change of basis
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((model.n_factors,) * 2))
        rotated = model.row_coords @ q
        stats = pairwise_distance_stats(rotated)
        assert stats.mean == pytest.approx(report.mean_pairwise, abs=1e-9)
        assert stats.stdev == pytest.approx(report.stdev_pairwise, abs=1e-9)

    def test_to_dict_round_trips_keys(self):
        tdm, model = fitted_corpus()
        payload = build_impact_report(tdm, model).to_dict()
        assert set(payload) == {"global", "campaigns", "skipped_campaigns"}
        assert payload["campaigns"][0]["distance_full"] > 0

    def test_campaign_without_initiator_is_skipped(self):
        rows = [
            (s, t, 0 if c == 2 else i, c)
            for s, t, i, c in synthetic_corpus_rows()
        ]
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
        model = fit_ca(tdm.principal_counts())
        report = build_impact_report(tdm, model)
        assert {c.campaign for c in report.campaigns} == {1, 3}
        assert report.skipped and report.skipped[0][0] == 2


def edge_corpus():
    """Four 50-document blocks where campaign 1 has two initiators that are
    not adjacent (seq 1 and 20), campaign 2 none, and campaign 9 nothing
    but one initiator."""
    rows = [
        (s, t, 1 if s == 20 else 0 if c == 2 else i, c)
        for s, t, i, c in scale_corpus_rows(n_blocks=4, seed=3)
    ]
    rows.append((10000, rows[1][1], 1, 9))
    docs = merge_adjacent_initiating(docs_from_rows(rows))
    tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
    model = fit_ca(tdm.principal_counts())
    return tdm, model


class TestImpactEdgeCorpus:
    def test_initiators_members_and_skips(self):
        report = build_impact_report(*edge_corpus())
        assert [
            (c.campaign, c.initiating_seq_nos, c.n_member_docs) for c in report.campaigns
        ] == [(1, (1, 20), 48), (3, (101,), 49), (4, (151,), 49)]
        assert report.skipped == [
            (2, "no initiating document survived thresholding"),
            (9, "no principal documents"),
        ]

    def test_pooled_initiator_to_member_weighted_mean(self):
        tdm, model = edge_corpus()
        record = build_impact_report(tdm, model).campaigns[0]
        pooled = tdm.counts[np.isin(tdm.seq_nos, [1, 20])].sum(axis=0)
        members = np.flatnonzero(tdm.principal_campaigns() == 1)
        centroid = weighted_mean_coords(model.row_coords, model.row_masses, members)
        expected = np.linalg.norm(project_supplementary_row(model, pooled) - centroid)
        assert record.campaign == 1
        assert record.distance_full == pytest.approx(expected, abs=1e-9)


class TestDrilldown:
    def test_defaults_and_initiator_included(self):
        tdm, _ = fitted_corpus()
        result = drilldown(tdm, 1, top_tweets=10, top_terms=15)
        n_docs_campaign_1 = int((tdm.campaigns == 1).sum())
        assert len(result.seq_nos) == n_docs_campaign_1  # initiating included
        assert result.initiating_seq_nos == [1]
        assert len(result.top_tweets) == min(10, n_docs_campaign_1)
        assert len(result.top_terms) == min(15, len(result.terms))
        # campaign-local term filter: every kept term occurs in the campaign
        assert all(t in tdm.terms for t in result.terms)
        assert len(result.terms) < tdm.n_terms

    def test_keeps_every_term_the_campaign_uses(self):
        # a term used once inside the campaign is a column of its space
        tdm, _ = fitted_corpus()
        totals = tdm.counts[tdm.campaigns == 1].sum(axis=0)
        assert (totals == 1).any()
        result = drilldown(tdm, 1, top_tweets=10, top_terms=15)
        assert result.terms == [t for t, total in zip(tdm.terms, totals) if total > 0]
        assert len(result.model.col_coords) == len(result.terms)

    def test_two_document_campaign_degenerates_gracefully(self):
        rows = synthetic_corpus_rows(docs_per_campaign=12)
        # graft a tiny fourth campaign reusing topic-1 words
        last = rows[-1][0]
        rows = rows + [
            (last + 1, "garden seed soil bloom", 1, 4),
            (last + 2, "garden soil water grow", 0, 4),
        ]
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 3, 3)
        result = drilldown(tdm, 4, top_tweets=10, top_terms=15)
        assert result.model.n_factors <= 1
        assert len(result.top_tweets) <= 2

    def test_dominant_term_tops_coordinate_list(self):
        # every document shares a uniform base vocabulary; "zebra" is the
        # only contrast, hammered by half the campaign
        base = "alpha beta gamma delta"
        rows = [(1, base + " zebra", 1, 9)]
        for s in range(2, 14):
            text = base + (" zebra zebra zebra" if s % 2 == 0 else "")
            rows.append((s, text, 0, 9))
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 3, 3)
        result = drilldown(tdm, 9, top_tweets=10, top_terms=15)
        assert result.top_terms[0]["term"] == "zebra"

    def test_tied_scores_keep_document_and_term_order(self):
        # texts repeat every fourth document and every word has a twin that
        # always occurs beside it, so many scores tie exactly
        words = [f"w{c}" for c in "abcdefghijkl"]
        texts = [" ".join(f"{w} {w}x" for w in (words * 2)[3 * k :][:5]) for k in range(4)]
        rows = [(d + 1, texts[d % 4], int(d == 0), 5) for d in range(40)]
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 3, 3)
        result = drilldown(tdm, 5, top_tweets=40, top_terms=40)
        model = result.model
        share = row_contributions(model)[:, :2].sum(axis=1) / model.eigenvalues[:2].sum()
        mag = np.linalg.norm(model.col_coords[:, :2], axis=1)
        for scores, top, key, names in (
            (share, result.top_tweets, "seq_no", result.seq_nos.tolist()),
            (mag, result.top_terms, "term", result.terms),
        ):
            assert len(set(scores.tolist())) < len(scores) / 2  # ties present
            stable = sorted(range(len(scores)), key=lambda i: -scores[i])
            assert [t[key] for t in top] == [names[i] for i in stable]

    def test_counts_reach_the_fit_exactly(self, monkeypatch):
        # a count past float32's exact integers (2**24) is not rounded
        tdm, _ = fitted_corpus()
        tdm.counts = tdm.counts * (2**24 + 1)
        fitted = []
        fit = impact.ca.fit_ca
        monkeypatch.setattr(impact.ca, "fit_ca", lambda t: fitted.append(t) or fit(t))
        drilldown(tdm, 1, top_tweets=10, top_terms=15)
        table = tdm.counts[tdm.campaigns == 1].toarray()
        assert np.array_equal(fitted[0].toarray(), table[:, table.sum(axis=0) > 0])

    def test_unknown_campaign(self):
        tdm, _ = fitted_corpus()
        with pytest.raises(EmptyCampaign):
            drilldown(tdm, 12345, top_tweets=10, top_terms=15)

    def test_unlabelled_documents_are_no_campaign(self):
        rows = [
            (s, text, init, None if c == 1 and not init else c)
            for s, text, init, c in synthetic_corpus_rows()
        ]
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
        assert (tdm.campaigns == -1).any()
        with pytest.raises(EmptyCampaign):
            drilldown(tdm, -1, top_tweets=10, top_terms=15)
