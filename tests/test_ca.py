import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from chronosem import (
    build_vocabulary,
    chi2_distance,
    decompose,
    fit_ca,
    normalize,
    project_supplementary_row,
    row_contributions,
    threshold_matrix,
    total_inertia,
)
from chronosem import ca as ca_module
from chronosem.ca import CAModel, model_export_dict
from chronosem.errors import ConvergenceError, EmptyProfile, ZeroMarginError
from helpers import docs_from_rows, random_count_table, synthetic_corpus_rows
from oracles import (
    chi2_distance_direct,
    eigenvalues_bruteforce,
    export_tables,
    inertia_col_cloud,
    inertia_row_cloud,
    inertia_via_chi2_statistic,
    weighted_mean_coords,
)

DIAG = np.array([[2, 0], [0, 2]])


def _export(model):
    """``model_export_dict`` with each point's index as its id."""
    return model_export_dict(
        model, row_ids=list(range(len(model.row_coords))),
        col_ids=list(range(len(model.col_coords))),
    )

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

    @pytest.mark.parametrize(
        "counts, match",
        [([1, 2, 3], "two-dimensional"), ([[1, -1], [2, 3]], "nonnegative"),
         ([[0, 0], [0, 0]], "grand total")],
        ids=["1d", "negative", "all_zero"],
    )
    def test_rejects_a_table_with_no_probabilities(self, counts, match):
        with pytest.raises(ZeroMarginError, match=match):
            normalize(np.array(counts))

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
            model = fit_ca(counts)
            n, p = counts.shape
            assert model.n_factors <= min(n - 1, p - 1)
            assert model.eigenvalues.sum() == pytest.approx(
                total_inertia(normalize(counts)), abs=1e-9
            )
            assert np.all(np.diff(model.eigenvalues) <= 1e-15)

    def test_centred_factors(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = fit_ca(random_count_table(rng))
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

    def test_truncation_cutoffs(self):
        n = 10**8
        # a second factor above the squared-eps noise floor but at 6e-18
        # of the total inertia is truncated
        strong = fit_ca(np.array([[n, 0, 0], [0, n, n], [0, n, n + 1]]))
        assert strong.n_factors == 1
        # a nearly independent table keeps its one factor: its inertia is
        # below eps, yet far above the squared-eps noise floor
        weak = fit_ca(np.array([[n, n], [n, n + 1]]))
        assert weak.n_factors == 1 and 0 < weak.eigenvalues[0] < 1e-16

    def test_percent_inertia_is_the_share_of_total_inertia(self):
        # the total, not the kept eigenvalues' sum, which differs from it
        # by what truncation dropped and by rounding
        model = fit_ca(random_count_table(np.random.default_rng(9)))
        assert np.array_equal(
            model.percent_inertia, 100.0 * model.eigenvalues / model.total_inertia
        )

    def test_failed_svd_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(ConvergenceError, match="SVD failed: SVD did not converge"):
            decompose(normalize(DIAG))

    def test_distance_invariance_random_6x4(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 9, size=(6, 4))
        table, model = normalize(counts), fit_ca(counts)
        worst = max(
            abs(chi2_distance(table, i, k) - factor_distance(model, i, k))
            for i in range(6)
            for k in range(6)
        )
        assert worst < 1e-9

    @given(counts=count_tables)
    def test_chi2_distance_is_full_space_distance(self, counts):
        # criterion 3, at the tolerance of the fixed 6x4 example above
        table, model = normalize(counts), fit_ca(counts)
        n = counts.shape[0]
        for i in range(n):
            for k in range(n):
                assert abs(chi2_distance(table, i, k) - factor_distance(model, i, k)) < 1e-9


def _svd_inputs(monkeypatch):
    """Record a copy of every array ``np.linalg.svd`` is given, and the
    array itself."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append((a, a.copy()))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


class TestFitMemory:
    def test_svd_runs_in_the_table_buffer(self, monkeypatch):
        # the residuals are formed in table.f, so the fit holds one n x p table
        seen = _svd_inputs(monkeypatch)
        table = normalize(random_count_table(np.random.default_rng(16)))
        decompose(table)
        assert len(seen) == 1
        assert np.shares_memory(seen[0][0], table.f)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_fit_leaves_its_input_unchanged(self, layout):
        counts = random_count_table(np.random.default_rng(17)).astype(np.float64)
        given = sparse.csr_array(counts) if layout == "csr" else counts
        parts = (lambda m: [m.data, m.indices, m.indptr]) if layout == "csr" else (lambda m: [m])
        before = [a.tobytes() for a in parts(given)]
        fit_ca(given)
        assert [a.tobytes() for a in parts(given)] == before

    def test_a_table_too_large_for_memory_raises(self):
        pytest.importorskip("resource")
        # only the child's own address space is limited, below the 2.98 GiB
        # dense table of a 20000 x 20000 identity
        script = textwrap.dedent("""
            import resource, sys
            import scipy.sparse as sp
            from chronosem import fit_ca
            from chronosem.errors import TableTooLarge
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, hard))
            try:
                fit_ca(sp.eye(20000, format="csr"))
            except TableTooLarge as exc:
                print(exc.exit_code, exc)
        """)
        src = os.path.dirname(os.path.dirname(ca_module.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("4 count table of shape (20000, 20000): ")
        assert "GiB" in done.stdout

    @pytest.mark.parametrize(
        "counts",
        [random_count_table(np.random.default_rng(seed)) for seed in range(18, 24)]
        # a column-major table (the drill-down slices one) still gives a C-order f
        + [np.asfortranarray(random_count_table(np.random.default_rng(seed), 40, 30))
           for seed in range(24, 27)]
        + [np.array([[7]]), np.ones((3, 4))],
        ids=[f"random{seed}" for seed in range(18, 24)]
        + [f"column_major{seed}" for seed in range(24, 27)] + ["1x1", "no_factor"],
    )
    def test_residuals_equal_the_copying_formula(self, monkeypatch, counts):
        table = normalize(counts)
        expected = np.outer(table.row_masses, table.col_masses)
        z = (table.f - expected) / np.sqrt(expected)
        seen = _svd_inputs(monkeypatch)
        model = decompose(table)
        assert len(seen) == 1
        got = seen[0][1]
        assert (got.dtype, got.shape, got.tobytes()) == (z.dtype, z.shape, z.tobytes())
        assert model.total_inertia == float(np.sum(z * z))
        # the SVD is handed a C-order table, as z is, so it gives z's factors
        assert seen[0][0].flags.c_contiguous
        handed, ref = (np.linalg.svd(a, full_matrices=False) for a in (seen[0][0], z))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(handed, ref))


class TestLayouts:
    def test_every_layout_fits_the_same_bits(self):
        # the segment map and the drill-down each hand the fit a column-major slice
        rng = np.random.default_rng(30)
        for _ in range(20):
            counts = random_count_table(rng, 40, 30)
            wide = np.zeros((counts.shape[0], 2 * counts.shape[1]), dtype=counts.dtype)
            wide[:, ::2] = counts
            forms = [counts, np.asfortranarray(counts), wide[:, ::2], sparse.csr_array(counts)]
            fits = [
                [np.asarray(getattr(model, field.name)).tobytes()
                 for field in dataclasses.fields(model)]
                for model in map(fit_ca, forms)
            ]
            assert all(fit == fits[0] for fit in fits[1:])


class TestContributions:
    def test_sum_equals_eigenvalue(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = fit_ca(random_count_table(rng))
            ctr = row_contributions(model)
            assert np.allclose(ctr.sum(axis=0), model.eigenvalues, atol=1e-9)
            cc = _export(model)["cols"]["contributions"][:]
            assert np.allclose(cc.sum(axis=0), model.eigenvalues, atol=1e-9)

    def test_dominant_row_tops_factor_one(self):
        # one row far off the shared profile dominates the leading factor
        counts = np.array(
            [[5, 5, 5], [5, 6, 5], [6, 5, 5], [5, 5, 6], [40, 1, 1]]
        )
        model = fit_ca(counts)
        ctr = row_contributions(model)
        assert int(np.argmax(ctr[:, 0])) == 4

    def test_export_percent_convention(self):
        # contribution reports use a percent-of-factor-inertia convention
        # like "0.04, 1.71, 9.94, ..." with two-decimal display
        rng = np.random.default_rng(9)
        model = fit_ca(random_count_table(rng))
        export = _export(model)
        ctr = export["rows"]["contributions"][:]
        pct = 100.0 * ctr / np.array(export["eigenvalues"])
        assert np.allclose(pct.sum(axis=0), 100.0, atol=1e-9)
        for s, disp in enumerate(export["percent_inertia_display"]):
            assert disp == f"{export['percent_inertia'][s]:.2f}"


class TestCorrelations:
    def test_single_factor_full_correlation(self):
        model = decompose(normalize(DIAG))
        assert np.allclose(_export(model)["rows"]["cos2"][:], 1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model = fit_ca(random_count_table(rng))
            sums = _export(model)["rows"]["cos2"][:].sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9)

    def test_axis_aligned_point(self):
        # swapping the last two columns maps row2<->row3 and fixes rows 0/3,
        # so rows 0 and 3 lie exactly on the symmetric factor's axis
        counts = np.array([[6, 1, 1], [1, 5, 1], [1, 1, 5], [2, 3, 3]])
        model = fit_ca(counts)
        assert model.n_factors == 2
        cos2 = _export(model)["rows"]["cos2"][:]
        for i in (0, 3):
            assert sorted(cos2[i]) == pytest.approx([0.0, 1.0], abs=1e-9)


def _coords_model(row_coords, col_coords, rng):
    """A CAModel holding the given coordinates and random positive masses."""
    n_factors = row_coords.shape[1]
    return CAModel(
        eigenvalues=np.linspace(1.0, 0.5, n_factors),
        row_coords=row_coords,
        col_coords=col_coords,
        row_masses=rng.random(len(row_coords)) + 0.5,
        col_masses=rng.random(len(col_coords)) + 0.5,
        total_inertia=1.0,
    )


def _zero_row_model():
    rng = np.random.default_rng(27)
    rows = rng.normal(size=(6, 3))
    rows[2] = 0.0
    return _coords_model(rows, rng.normal(size=(4, 3)), rng)


def _f_order_model():
    """Column-major coordinates on twelve factors, as ``decompose`` gives the
    columns, and 65 rows, so 64-row stripes leave one row over."""
    rng = np.random.default_rng(29)
    return _coords_model(np.asfortranarray(rng.normal(size=(65, 12))),
                         np.asfortranarray(rng.normal(size=(7, 12))), rng)


class TestExportTables:
    @pytest.mark.parametrize(
        "make_model",
        [lambda seed=seed: fit_ca(random_count_table(np.random.default_rng(seed)))
         for seed in range(40, 60)]
        + [_zero_row_model, _f_order_model, lambda: fit_ca(np.outer([1, 2, 3], [2, 1, 4]))],
        ids=[f"random{seed}" for seed in range(40, 60)] + ["zero_row", "f_order", "no_factor"],
    )
    def test_tables_equal_the_separate_formulas(self, make_model):
        # contributions m_i F_s(i)^2, and cos2 with zeros where a row's
        # squared distance to the origin is 0; a 0/0 raises here.  Any
        # split into row blocks gives the whole tables' bytes.
        with np.errstate(all="raise"):
            model = make_model()
            export = _export(model)
            for cloud, masses, coords in (
                ("rows", model.row_masses, model.row_coords),
                ("cols", model.col_masses, model.col_coords),
            ):
                wants = export_tables(masses, coords)
                for key, want in zip(("contributions", "cos2"), wants):
                    leaf = export[cloud][key]
                    for size in (1, 2, 3, 64, len(coords)):
                        got = np.concatenate(
                            [leaf[a : a + size] for a in range(0, len(coords), size)])
                        assert (got.dtype, got.shape, got.tobytes()) == (
                            want.dtype, want.shape, want.tobytes())
        if model.n_factors == 0:
            assert export["rows"]["cos2"][:].shape == (3, 0)

    # the 1k corpus's shapes, 980 rows and 348 columns on 346 factors; and many
    # documents over few terms
    @pytest.mark.parametrize("n, p, s", [(980, 348, 346), (2940, 101, 100)],
                             ids=["corpus_1k", "few_terms"])
    def test_export_holds_no_table(self, n, p, s):
        rng = np.random.default_rng(28)
        model = _coords_model(rng.normal(size=(n, s)), rng.normal(size=(p, s)), rng)
        tracemalloc.start()
        try:
            _export(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * model.row_coords.nbytes


class TestSupplementary:
    def test_mean_profile_projects_to_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            counts = random_count_table(rng)
            table, model = normalize(counts), fit_ca(counts)
            proj = project_supplementary_row(model, table.col_masses)
            assert np.allclose(proj, 0.0, atol=1e-9)

    def test_principal_row_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            counts = random_count_table(rng)
            table, model = normalize(counts), fit_ca(counts)
            for i in range(table.shape[0]):
                proj = project_supplementary_row(model, table.f[i])
                assert np.allclose(proj, model.row_coords[i], atol=1e-9)

    @given(counts=count_tables)
    def test_principal_row_round_trip_property(self, counts):
        # transition formula, at the tolerance of the fixed examples above
        table, model = normalize(counts), fit_ca(counts)
        for i in range(table.shape[0]):
            proj = project_supplementary_row(model, table.f[i])
            assert np.allclose(proj, model.row_coords[i], atol=1e-9)

    def test_campaign_indicator_is_weighted_member_mean(self):
        rows = synthetic_corpus_rows()
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
        counts = np.asarray(tdm.principal_counts().todense())
        model = fit_ca(counts)
        campaigns = tdm.principal_campaigns()
        for c in tdm.campaign_ids:
            members = np.flatnonzero(campaigns == c)
            agg = counts[members].sum(axis=0)
            proj = project_supplementary_row(model, agg)
            oracle = weighted_mean_coords(model.row_coords, model.row_masses, members)
            assert np.allclose(proj, oracle, atol=1e-9)

    def test_projection_leaves_model_untouched(self):
        counts = random_count_table(np.random.default_rng(14))
        table, model = normalize(counts), fit_ca(counts)
        before = (
            model.eigenvalues.copy(),
            model.row_coords.copy(),
            model.col_coords.copy(),
        )
        project_supplementary_row(model, table.f[0])
        assert np.array_equal(before[0], model.eigenvalues)
        assert np.array_equal(before[1], model.row_coords)
        assert np.array_equal(before[2], model.col_coords)

    def test_model_arrays_are_read_only(self):
        model = fit_ca(random_count_table(np.random.default_rng(15)))
        for name in ("eigenvalues", "row_coords", "col_coords", "row_masses", "col_masses"):
            with pytest.raises(ValueError):
                getattr(model, name)[0] = 0.0

    def test_empty_profile_raises(self):
        model = fit_ca(DIAG)
        with pytest.raises(EmptyProfile):
            project_supplementary_row(model, np.zeros(2))

    @pytest.mark.parametrize(
        "profile, match", [([2, -1], "negative"), ([1, 1, 1], "length 3 != 2")],
        ids=["negative", "wrong_length"],
    )
    def test_non_profile_raises(self, profile, match):
        with pytest.raises(EmptyProfile, match=match):
            project_supplementary_row(fit_ca(DIAG), np.array(profile))
