import numpy as np
import pytest

from chronosem import (
    build_impact_report,
    build_vocabulary,
    campaign_centroid,
    cluster,
    drilldown,
    fit_ca,
    impact_distance,
    pairwise_distance_stats,
    significance,
    threshold_matrix,
)
from chronosem.errors import DegenerateSpread, DimensionMismatch, EmptyCampaign
from chronosem.impact import PairwiseStats
from helpers import docs_from_rows, synthetic_corpus_rows
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
    _, model = fit_ca(tdm.principal_counts())
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


class TestCampaignCentroid:
    def test_single_member_campaign(self):
        tdm, model = fitted_corpus()
        counts = np.asarray(tdm.principal_counts().todense())
        campaigns = np.full(counts.shape[0], -1)
        campaigns[3] = 42
        centroid = campaign_centroid(model, counts, campaigns, 42)
        assert np.allclose(centroid, model.row_coords[3], atol=1e-9)

    def test_weighted_mean_oracle(self):
        tdm, model = fitted_corpus()
        counts = np.asarray(tdm.principal_counts().todense())
        campaigns = tdm.principal_campaigns()
        for c in tdm.campaign_ids:
            members = np.flatnonzero(campaigns == c)
            centroid = campaign_centroid(model, counts, campaigns, c)
            oracle = weighted_mean_coords(model.row_coords, model.row_masses, members)
            assert np.allclose(centroid, oracle, atol=1e-9)

    def test_all_documents_centroid_is_origin(self):
        tdm, model = fitted_corpus()
        counts = np.asarray(tdm.principal_counts().todense())
        campaigns = np.zeros(counts.shape[0], dtype=int)
        centroid = campaign_centroid(model, counts, campaigns, 0)
        assert np.allclose(centroid, 0.0, atol=1e-9)

    def test_empty_campaign(self):
        tdm, model = fitted_corpus()
        counts = np.asarray(tdm.principal_counts().todense())
        with pytest.raises(EmptyCampaign):
            campaign_centroid(model, counts, tdm.principal_campaigns(), 999)


class TestImpactDistance:
    def test_zero_when_profiles_match(self):
        coords = np.array([0.3, -0.2, 0.1])
        assert impact_distance(coords, coords.copy()) == 0.0

    def test_plane_never_exceeds_full(self):
        tdm, model = fitted_corpus()
        report = build_impact_report(tdm, model)
        assert report.campaigns, "expected campaign records"
        for c in report.campaigns:
            assert c.distance_plane <= c.distance_full + 1e-12

    def test_full_distance_rotation_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert impact_distance(a @ q, b @ q) == pytest.approx(
            impact_distance(a, b), abs=1e-10
        )


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
        _, model = fit_ca(tdm.principal_counts())
        report = build_impact_report(tdm, model)
        assert {c.campaign for c in report.campaigns} == {1, 3}
        assert report.skipped and report.skipped[0][0] == 2


class TestDrilldown:
    def test_defaults_and_initiator_included(self):
        tdm, _ = fitted_corpus()
        result = drilldown(tdm, 1)
        n_docs_campaign_1 = int((tdm.campaigns == 1).sum())
        assert len(result.seq_nos) == n_docs_campaign_1  # initiating included
        assert result.initiating_seq_nos == [1]
        assert len(result.top_tweets) == min(10, n_docs_campaign_1)
        assert len(result.top_terms) == min(15, len(result.terms))
        # campaign-local term filter: every kept term occurs in the campaign
        assert all(t in tdm.terms for t in result.terms)
        assert len(result.terms) < tdm.n_terms

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
        result = drilldown(tdm, 4)
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
        result = drilldown(tdm, 9)
        assert result.top_terms[0]["term"] == "zebra"

    def test_unknown_campaign(self):
        tdm, _ = fitted_corpus()
        with pytest.raises(EmptyCampaign):
            drilldown(tdm, 12345)
