import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chronosem import (
    build_vocabulary,
    chi2_distance,
    col_contributions,
    decompose,
    fit_ca,
    normalize,
    project_supplementary_col,
    project_supplementary_row,
    row_contributions,
    row_correlations,
    threshold_matrix,
    total_inertia,
)
from chronosem.ca import model_export_dict
from chronosem.errors import ConvergenceError, EmptyProfile, ZeroMarginError
from helpers import docs_from_rows, random_count_table, synthetic_corpus_rows
from oracles import (
    chi2_distance_direct,
    eigenvalues_bruteforce,
    inertia_col_cloud,
    inertia_row_cloud,
    inertia_via_chi2_statistic,
    weighted_mean_coords,
)

DIAG = np.array([[2, 0], [0, 2]])

# small nonnegative count tables with every row and column sum positive
count_tables = hnp.arrays(
    np.int64,
    st.tuples(st.integers(2, 8), st.integers(2, 6)),
    elements=st.integers(0, 9),
    fill=st.nothing(),
).filter(lambda c: c.sum(axis=1).all() and c.sum(axis=0).all())


def factor_distance(model, i, k):
    return float(np.linalg.norm(model.row_coords[i] - model.row_coords[k]))


class TestNormalize:
    def test_diag_table(self):
        t = normalize(DIAG)
        assert np.allclose(t.f, [[0.5, 0.0], [0.0, 0.5]])
        assert np.allclose(t.row_masses, [0.5, 0.5])
        assert np.allclose(t.col_masses, [0.5, 0.5])

    def test_degenerate_single_cell(self):
        t = normalize(np.array([[7]]))
        assert t.f.tolist() == [[1.0]]
        assert t.row_masses.tolist() == [1.0] and t.col_masses.tolist() == [1.0]

    def test_zero_row_raises(self):
        with pytest.raises(ZeroMarginError):
            normalize(np.array([[1, 2], [0, 0]]))

    def test_zero_col_raises(self):
        with pytest.raises(ZeroMarginError):
            normalize(np.array([[1, 0], [2, 0]]))

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = normalize(random_count_table(rng))
            assert abs(t.f.sum() - 1.0) < 1e-12
            assert np.allclose(t.f.sum(axis=1), t.row_masses)
            assert np.allclose(t.f.sum(axis=0), t.col_masses)
            assert np.all(t.row_masses > 0) and np.all(t.col_masses > 0)


class TestChi2Distance:
    def test_identical_profiles_zero(self):
        t = normalize(np.array([[1, 2, 3], [2, 4, 6], [5, 1, 1]]))
        assert chi2_distance(t, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_diag_table_by_hand(self):
        t = normalize(DIAG)
        assert chi2_distance(t, 0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_row_scaling_invariance(self):
        # a row and its 7x-scaled copy share one profile point, so the copy
        # inherits every distance of the original exactly
        table = normalize(
            np.array([[1, 2, 3], [7, 14, 21], [4, 1, 2], [2, 2, 5]])
        )
        assert chi2_distance(table, 0, 1) == pytest.approx(0.0, abs=1e-12)
        for m in (2, 3):
            assert chi2_distance(table, 0, m) == pytest.approx(
                chi2_distance(table, 1, m), abs=1e-12
            )

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            counts = random_count_table(rng)
            t = normalize(counts)
            n = counts.shape[0]
            for i in range(n):
                for k in range(n):
                    assert chi2_distance(t, i, k) == pytest.approx(
                        chi2_distance_direct(counts, i, k), abs=1e-12
                    )


class TestTotalInertia:
    def test_independence_model_zero(self):
        assert total_inertia(normalize(np.ones((2, 2)))) == pytest.approx(0.0, abs=1e-15)

    def test_diag_table(self):
        assert total_inertia(normalize(DIAG)) == pytest.approx(1.0, abs=1e-12)

    def test_equals_chi2_statistic_over_total(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = random_count_table(rng)
            got = total_inertia(normalize(counts))
            assert got == pytest.approx(inertia_via_chi2_statistic(counts), abs=1e-10)

    def test_row_and_col_clouds_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = random_count_table(rng)
            got = total_inertia(normalize(counts))
            assert abs(inertia_row_cloud(counts) - inertia_col_cloud(counts)) < 1e-12
            assert got == pytest.approx(inertia_row_cloud(counts), abs=1e-12)


class TestDecompose:
    def test_uniform_table_no_factors(self):
        model = decompose(normalize(np.ones((3, 4))))
        assert model.n_factors == 0
        assert model.total_inertia == pytest.approx(0.0, abs=1e-15)

    def test_diag_table_single_factor(self):
        model = decompose(normalize(DIAG))
        assert model.n_factors == 1
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        f = model.row_coords[:, 0]
        assert np.abs(f) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert f[0] * f[1] < 0  # opposite signs

    def test_dominant_row_coordinate_is_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            coords = decompose(normalize(random_count_table(rng))).row_coords
            assert coords.shape[1] > 0
            dominant = coords[np.argmax(np.abs(coords), axis=0), np.arange(coords.shape[1])]
            assert (dominant > 0).all()

    def test_eigenvalues_match_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            counts = random_count_table(rng)
            model = decompose(normalize(counts))
            oracle = eigenvalues_bruteforce(counts)
            assert len(model.eigenvalues) <= len(oracle)
            for s in range(len(model.eigenvalues)):
                assert model.eigenvalues[s] == pytest.approx(oracle[s], abs=1e-9)
            # anything the model truncated must be numerically null
            for s in range(len(model.eigenvalues), len(oracle)):
                assert oracle[s] < 1e-9

    def test_eigenvalue_sum_and_rank_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = random_count_table(rng)
            table, model = fit_ca(counts)
            n, p = counts.shape
            assert model.n_factors <= min(n - 1, p - 1)
            assert model.eigenvalues.sum() == pytest.approx(
                total_inertia(table), abs=1e-9
            )
            assert np.all(np.diff(model.eigenvalues) <= 1e-15)

    def test_centred_factors(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            table, model = fit_ca(random_count_table(rng))
            for s in range(model.n_factors):
                assert abs(np.sum(model.row_masses * model.row_coords[:, s])) < 1e-10
                assert abs(np.sum(model.col_masses * model.col_coords[:, s])) < 1e-10

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_non_finite_svd_raises(self, monkeypatch, part):
        # the artifact writers format floats with repr, which matches JSON
        # only for finite values, so a NaN or inf must stop the fit
        svd = np.linalg.svd

        def poisoned(*args, **kwargs):
            out = [np.array(a) for a in svd(*args, **kwargs)]
            out[part].flat[-1] = np.nan if part != 1 else np.inf
            return tuple(out)

        monkeypatch.setattr(np.linalg, "svd", poisoned)
        with pytest.raises(ConvergenceError, match="non-finite"):
            decompose(normalize(DIAG))

    def test_distance_invariance_random_6x4(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 9, size=(6, 4))
        table, model = fit_ca(counts)
        worst = max(
            abs(chi2_distance(table, i, k) - factor_distance(model, i, k))
            for i in range(6)
            for k in range(6)
        )
        assert worst < 1e-9

    @given(counts=count_tables)
    def test_chi2_distance_is_full_space_distance(self, counts):
        # criterion 3, at the tolerance of the fixed 6x4 example above
        table, model = fit_ca(counts)
        n = counts.shape[0]
        for i in range(n):
            for k in range(n):
                assert abs(chi2_distance(table, i, k) - factor_distance(model, i, k)) < 1e-9


class TestContributions:
    def test_sum_equals_eigenvalue(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            _, model = fit_ca(random_count_table(rng))
            ctr = row_contributions(model)
            assert np.allclose(ctr.sum(axis=0), model.eigenvalues, atol=1e-9)
            cc = col_contributions(model)
            assert np.allclose(cc.sum(axis=0), model.eigenvalues, atol=1e-9)

    def test_dominant_row_tops_factor_one(self):
        # one row far off the shared profile dominates the leading factor
        counts = np.array(
            [[5, 5, 5], [5, 6, 5], [6, 5, 5], [5, 5, 6], [40, 1, 1]]
        )
        _, model = fit_ca(counts)
        ctr = row_contributions(model)
        assert int(np.argmax(ctr[:, 0])) == 4

    def test_export_percent_convention(self):
        # contribution reports use a percent-of-factor-inertia convention
        # like "0.04, 1.71, 9.94, ..." with two-decimal display
        rng = np.random.default_rng(9)
        _, model = fit_ca(random_count_table(rng))
        export = model_export_dict(model)
        ctr = np.array(export["rows"]["contributions"])
        pct = 100.0 * ctr / np.array(export["eigenvalues"])
        assert np.allclose(pct.sum(axis=0), 100.0, atol=1e-9)
        for s, disp in enumerate(export["percent_inertia_display"]):
            assert disp == f"{export['percent_inertia'][s]:.2f}"


class TestCorrelations:
    def test_single_factor_full_correlation(self):
        model = decompose(normalize(DIAG))
        assert np.allclose(row_correlations(model), 1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            _, model = fit_ca(random_count_table(rng))
            sums = row_correlations(model).sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9)

    def test_axis_aligned_point(self):
        # swapping the last two columns maps row2<->row3 and fixes rows 0/3,
        # so rows 0 and 3 lie exactly on the symmetric factor's axis
        counts = np.array([[6, 1, 1], [1, 5, 1], [1, 1, 5], [2, 3, 3]])
        _, model = fit_ca(counts)
        assert model.n_factors == 2
        cos2 = row_correlations(model)
        for i in (0, 3):
            assert sorted(cos2[i]) == pytest.approx([0.0, 1.0], abs=1e-9)


class TestSupplementary:
    def test_mean_profile_projects_to_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table, model = fit_ca(random_count_table(rng))
            proj = project_supplementary_row(model, table.col_masses)
            assert np.allclose(proj, 0.0, atol=1e-9)

    def test_principal_row_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            table, model = fit_ca(random_count_table(rng))
            for i in range(table.shape[0]):
                proj = project_supplementary_row(model, table.f[i])
                assert np.allclose(proj, model.row_coords[i], atol=1e-9)

    @given(counts=count_tables)
    def test_principal_row_round_trip_property(self, counts):
        # transition formula, at the tolerance of the fixed examples above
        table, model = fit_ca(counts)
        for i in range(table.shape[0]):
            proj = project_supplementary_row(model, table.f[i])
            assert np.allclose(proj, model.row_coords[i], atol=1e-9)

    def test_principal_col_round_trip(self):
        rng = np.random.default_rng(13)
        table, model = fit_ca(random_count_table(rng))
        for j in range(table.shape[1]):
            proj = project_supplementary_col(model, table.f[:, j])
            assert np.allclose(proj, model.col_coords[j], atol=1e-9)

    def test_campaign_indicator_is_weighted_member_mean(self):
        rows = synthetic_corpus_rows()
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
        counts = np.asarray(tdm.principal_counts().todense())
        table, model = fit_ca(counts)
        campaigns = tdm.principal_campaigns()
        for c in tdm.campaign_ids:
            members = np.flatnonzero(campaigns == c)
            agg = counts[members].sum(axis=0)
            proj = project_supplementary_row(model, agg)
            oracle = weighted_mean_coords(model.row_coords, model.row_masses, members)
            assert np.allclose(proj, oracle, atol=1e-9)

    def test_projection_leaves_model_untouched(self):
        table, model = fit_ca(random_count_table(np.random.default_rng(14)))
        before = (
            model.eigenvalues.copy(),
            model.row_coords.copy(),
            model.col_coords.copy(),
        )
        project_supplementary_row(model, table.f[0])
        project_supplementary_col(model, table.f[:, 0])
        assert np.array_equal(before[0], model.eigenvalues)
        assert np.array_equal(before[1], model.row_coords)
        assert np.array_equal(before[2], model.col_coords)

    def test_model_arrays_are_read_only(self):
        _, model = fit_ca(random_count_table(np.random.default_rng(15)))
        for name in ("eigenvalues", "row_coords", "col_coords", "row_masses", "col_masses"):
            with pytest.raises(ValueError):
                getattr(model, name)[0] = 0.0

    def test_empty_profile_raises(self):
        _, model = fit_ca(DIAG)
        with pytest.raises(EmptyProfile):
            project_supplementary_row(model, np.zeros(2))
