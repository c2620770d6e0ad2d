"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured numbers once its assertions
hold (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Published-arithmetic fixtures are exact; everything else is checked against
independent brute-force oracles at the stated tolerances.
"""

import json
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from chronosem import (
    PermTestConfig,
    build_vocabulary,
    chi2_distance,
    cluster,
    decompose,
    fit_ca,
    normalize,
    perm_test,
    project_supplementary_row,
    segment,
    significance,
    threshold_matrix,
    tokenize,
    total_inertia,
)
from chronosem.cli import PipelineConfig, run
from helpers import (
    SYNTHETIC3,
    docs_from_rows,
    random_count_table,
    scale_corpus_rows,
    synthetic_corpus_rows,
    three_blob_points,
    write_corpus_csv,
)
from oracles import (
    constrained_complete_link_bruteforce,
    eigenvalues_bruteforce,
    exhaustive_perm_p,
    inertia_col_cloud,
    inertia_row_cloud,
    weighted_mean_coords,
)


def report(line):
    print(f"\nPASS  {line}")


@pytest.fixture(scope="module")
def random_tables():
    rng = np.random.default_rng(2024)
    return [random_count_table(rng, max_rows=8, max_cols=6) for _ in range(200)]


def test_criterion_1_impact_arithmetic_fixture():
    d, mean, mean_minus_stdev = 3.670904, 12.64907, 8.508712
    stdev = mean - mean_minus_stdev
    z, tail = significance(d, mean, stdev)
    assert abs(z - (-2.168451)) < 1e-5
    two_stdev = mean - 2 * stdev
    assert abs(two_stdev - 4.368352) < 5e-6
    significance(d, mean, stdev)  # warm
    elapsed = np.inf
    for _ in range(100):
        t0 = time.perf_counter()
        significance(d, mean, stdev)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert elapsed < 1e-3
    report(
        f"criterion 1: z={z:.6f} (target -2.168451±1e-5), "
        f"mean-2*stdev={two_stdev:.6f} (target 4.368352±5e-6), "
        f"runtime {elapsed * 1e6:.1f}us < 1ms"
    )


def test_criterion_2_ca_oracle_equivalence(random_tables):
    worst_eig, worst_sum, worst_m2 = 0.0, 0.0, 0.0
    for counts in random_tables:
        table = normalize(counts)
        model = decompose(table)
        oracle = eigenvalues_bruteforce(counts)
        for s in range(len(model.eigenvalues)):
            worst_eig = max(worst_eig, abs(model.eigenvalues[s] - oracle[s]))
        for s in range(len(model.eigenvalues), len(oracle)):
            worst_eig = max(worst_eig, oracle[s])
        inertia = total_inertia(table)
        worst_sum = max(worst_sum, abs(model.eigenvalues.sum() - inertia))
        worst_m2 = max(
            worst_m2, abs(inertia_row_cloud(counts) - inertia_col_cloud(counts))
        )
    assert worst_eig < 1e-9
    assert worst_sum < 1e-9
    assert worst_m2 < 1e-12
    report(
        f"criterion 2: 200 random tables; max eigenvalue error {worst_eig:.2e} < 1e-9, "
        f"max |sum(lambda)-inertia| {worst_sum:.2e} < 1e-9, "
        f"max |M2(rows)-M2(cols)| {worst_m2:.2e} < 1e-12"
    )


def test_criterion_3_distance_invariance(random_tables):
    worst = 0.0
    for counts in random_tables:
        table = normalize(counts)
        model = decompose(table)
        n = counts.shape[0]
        for i in range(n):
            for k in range(i + 1, n):
                d_chi = chi2_distance(table, i, k)
                d_fac = float(np.linalg.norm(model.row_coords[i] - model.row_coords[k]))
                worst = max(worst, abs(d_chi - d_fac))
    assert worst < 1e-8
    report(
        f"criterion 3: chi2 vs factor-space distance, max row-pair discrepancy "
        f"{worst:.2e} < 1e-8 over 200 tables"
    )


def test_criterion_4_transition_and_supplementary(random_tables):
    worst_rt, worst_mean = 0.0, 0.0
    for counts in random_tables[:50]:
        table, model = fit_ca(counts)
        for i in range(counts.shape[0]):
            proj = project_supplementary_row(model, table.f[i])
            worst_rt = max(worst_rt, float(np.abs(proj - model.row_coords[i]).max(initial=0.0)))
        mean_proj = project_supplementary_row(model, table.col_masses)
        worst_mean = max(worst_mean, float(np.abs(mean_proj).max(initial=0.0)))
    # campaign-indicator projection vs explicit member mean on the corpus
    docs = docs_from_rows(synthetic_corpus_rows())
    tdm = threshold_matrix(docs, build_vocabulary(docs), 5, 5)
    counts = np.asarray(tdm.principal_counts().todense())
    _, model = fit_ca(counts)
    campaigns = tdm.principal_campaigns()
    worst_cc = 0.0
    for c in tdm.campaign_ids:
        members = np.flatnonzero(campaigns == c)
        proj = project_supplementary_row(model, counts[members].sum(axis=0))
        oracle = weighted_mean_coords(model.row_coords, model.row_masses, members)
        worst_cc = max(worst_cc, float(np.abs(proj - oracle).max()))
    assert worst_rt < 1e-9 and worst_mean < 1e-9 and worst_cc < 1e-9
    report(
        f"criterion 4: row round-trip {worst_rt:.2e}, mean-profile origin "
        f"{worst_mean:.2e}, campaign centroid vs weighted mean {worst_cc:.2e}; "
        f"all < 1e-9"
    )


def test_criterion_5_constrained_clustering_oracle():
    rng = np.random.default_rng(99)
    worst_h = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        pts = rng.standard_normal((n, int(rng.integers(1, 5))))
        dendro = cluster(pts)
        oracle = constrained_complete_link_bruteforce(pts)
        assert len(dendro.merges) == n - 1 == len(oracle)
        prev = -np.inf
        for m, (o_left, o_right, o_h) in zip(dendro.merges, oracle):
            left = dendro.intervals[m.left]
            right = dendro.intervals[m.right]
            assert left == (o_left[0], o_left[-1])
            assert right == (o_right[0], o_right[-1])
            assert right[0] == left[1] + 1  # contiguity of every merge
            worst_h = max(worst_h, abs(m.height - o_h))
            assert m.height >= prev  # monotone heights
            prev = m.height
    assert worst_h < 1e-12
    report(
        f"criterion 5: 100 random sequences (n<=12) match the brute-force "
        f"reference merge-for-merge; max height deviation {worst_h:.2e} < 1e-12"
    )


def test_criterion_6_permutation_calibration_and_three_blobs():
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for n_a in range(1, 7):
        for n_b in range(max(n_a, 2), 7):
            pts = rng.standard_normal((n_a + n_b, 3))
            res = perm_test(
                pts[:n_a], pts[n_a:], PermTestConfig(n_permutations=5000, rng_seed=13)
            )
            if res.degenerate:
                continue
            h_ex, p_ex = exhaustive_perm_p(squareform(pdist(pts)), n_a)
            assert res.h == h_ex
            worst_gap = max(worst_gap, abs(res.p - p_ex))
    assert worst_gap <= 0.02

    pts = three_blob_points()
    hits = sum(
        segment(pts, PermTestConfig(alpha=0.15, n_permutations=5000, rng_seed=s)).n_segments == 3
        for s in range(100)
    )
    elapsed = time.perf_counter() - t_start
    assert hits >= 95
    assert elapsed < 60.0
    report(
        f"criterion 6: max |MC-exhaustive| p gap {worst_gap:.4f} <= 0.02; "
        f"three-blob recovery {hits}/100 >= 95; suite {elapsed:.1f}s < 60s"
    )


def test_criterion_7_tokenizer_fixtures():
    campaign1 = (
        "Introducing #climatechange! Is the climate changing?"
        "What are the observed changes?Are humans causing it? "
        "Discuss http://t.co/cMUOmbEt #dmuCC"
    )
    toks = tokenize(campaign1)
    for term in ("climate", "climatechange", "dmucc", "http"):
        assert toks.count(term) == 1

    campaign4_merged = (
        "Goodmorning #DMU!! How was your weekend? We are talking about gas "
        "and heating this week! #dmuenergy Wishing you all a nice #ecomonday! "
        "Connect with us to discover what #DMU is already doing to cut its "
        "#gas use and tell us what you think we could all do to make it better!"
    )
    toks4 = tokenize(campaign4_merged)
    assert toks4.count("dmu") == 2
    assert toks4.count("gas") == 2
    report(
        "criterion 7: initiating-text fixtures - campaign 1 tokens "
        "{climate, climatechange, dmucc, http} once each; merged campaign 4 "
        "has dmu=2 and gas=2"
    )


def test_criterion_8_cli_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        paths = run(
            "all",
            PipelineConfig(input=str(SYNTHETIC3), out=str(out), rng_seed=42),
        )
        assert paths
        outs.append(out)
    checked = 0
    for fname in (
        "segments.json", "segments.csv", "impact.json", "impact.csv",
        "impact_curve.csv",
    ):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        checked += 1
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    assert m0["artifacts"] == m1["artifacts"]  # identical content hashes
    report(
        f"criterion 8: two seed-42 `all` runs byte-identical on {checked} "
        f"segmentation/impact artifacts and on every manifest hash"
    )


def test_criterion_9_scale_pipeline_under_60s(tmp_path):
    rows = scale_corpus_rows()
    corpus = write_corpus_csv(rows, tmp_path / "scale.csv")
    config = PipelineConfig(
        input=str(corpus), out=str(tmp_path / "out"), rng_seed=5,
        n_permutations=5000,
    )
    t0 = time.perf_counter()
    paths = run("all", config)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    roles = json.loads((tmp_path / "out" / "matrix_roles.json").read_text())
    n_terms = sum(1 for c in roles["cols"] if c["role"] == "term")
    assert roles["shape"][0] == 1000
    assert 330 <= n_terms <= 360  # target scale is ~350 retained terms
    assert len(paths) >= 6
    report(
        f"criterion 9: 1000 docs x {n_terms} retained terms, full chain with "
        f"5000-permutation segmentation in {elapsed:.1f}s < 60s"
    )
