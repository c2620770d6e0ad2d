"""Byte format of the CA factor-space artifacts.

``model.json`` is streamed one leaf at a time; its 2-D float leaves are
formatted in row stripes on a process pool, each coordinate once for
``model.json`` and for ``model_rows.csv``/``model_cols.csv``.  These tests
pin the result to the reference renderings (``json.dumps`` of the whole
export with sorted keys, and ``csv.writer`` with each cell's ``repr``) and
check that the bytes do not depend on the number of worker processes.
"""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chronosem import _workers, cli, corpus
from chronosem.ca import CAModel, fit_ca, model_export_dict
from chronosem.cli import _dump_leaves, main
from helpers import SYNTHETIC3, artifact_bytes, scale_corpus_rows, write_corpus_csv
from oracles import export_tables


def _tolist(obj):
    if isinstance(obj, dict):
        return {k: _tolist(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _reference(export):
    """``export`` with its contributions and cos² leaves as whole tables
    built by the oracle."""
    export = {**export}
    for cloud in ("rows", "cols"):
        c = export[cloud] = {**export[cloud]}
        c["contributions"], c["cos2"] = export_tables(c["masses"], c["coords"])
    return export


def _reference_export(path):
    docs = corpus.merge_adjacent_initiating(corpus.load_corpus(path))
    tdm = corpus.threshold_matrix(docs, corpus.build_vocabulary(docs), 5, 5)
    model = fit_ca(tdm.principal_counts())
    seq = [int(s) for s in tdm.principal_seq_nos()]
    return _reference(model_export_dict(model, row_ids=seq, col_ids=tdm.terms))


def _reference_csv(ids, coords):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id"] + [f"f{s + 1}" for s in range(coords.shape[1])])
    for i, row in zip(ids, coords):
        writer.writerow([i] + [repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


def _check_ca_artifacts(path, out):
    assert main(["ca", "--input", str(path), "--out", str(out)]) == 0
    export = _reference_export(path)
    expected = json.dumps(_tolist(export), sort_keys=True) + "\n"
    assert (out / "model.json").read_bytes() == expected.encode("utf-8")
    for cloud in ("rows", "cols"):
        got = (out / f"model_{cloud}.csv").read_bytes()
        assert got == _reference_csv(export[cloud]["ids"], export[cloud]["coords"])


def _two_term_rows(n_terms):
    """Three campaign blocks of ten documents over ``n_terms`` of the words
    alpha and beta, so the CA model has ``n_terms - 1`` factors."""
    rng = np.random.default_rng(3)
    rows = []
    for c in (1, 2, 3):
        for d in range(10):
            a = int(rng.integers(1, 4)) + 2 * (c == 2)
            b = int(rng.integers(1, 4)) + 2 * (c == 3)
            words = ["alpha"] * a + (["beta"] * b if n_terms == 2 else [])
            rows.append((len(rows) + 1, " ".join(words), int(d == 0), c))
    return rows


# name -> corpus file writer; tmp_path in, path out
CORPORA = {
    "synthetic3": lambda tmp: SYNTHETIC3,
    "blocks4": lambda tmp: write_corpus_csv(scale_corpus_rows(n_blocks=4), tmp / "b.csv"),
    "one_factor": lambda tmp: write_corpus_csv(_two_term_rows(2), tmp / "one.csv"),
}
STRIPE_CORPORA = {
    **CORPORA, "no_factor": lambda tmp: write_corpus_csv(_two_term_rows(1), tmp / "no.csv")
}


def test_synthetic3_artifacts_match_reference_renderings(tmp_path):
    _check_ca_artifacts(SYNTHETIC3, tmp_path / "out")


def test_block_corpus_artifacts_match_reference_renderings(tmp_path):
    path = write_corpus_csv(scale_corpus_rows(n_blocks=4), tmp_path / "blocks.csv")
    _check_ca_artifacts(path, tmp_path / "out")


@pytest.mark.parametrize("n_terms", [1, 2])
def test_few_factor_artifacts_match_reference_renderings(tmp_path, n_terms):
    path = write_corpus_csv(_two_term_rows(n_terms), tmp_path / "c.csv")
    _check_ca_artifacts(path, tmp_path / "out")
    model = json.loads((tmp_path / "out" / "model.json").read_text())
    assert model["n_factors"] == n_terms - 1
    lines = (tmp_path / "out" / "model_rows.csv").read_text().splitlines()
    assert all(len(line.split(",")) == n_terms for line in lines)


@pytest.mark.parametrize("stripe_rows", [1, 2, 3, 64])
@pytest.mark.parametrize("name", STRIPE_CORPORA)
def test_artifacts_match_reference_at_any_stripe_size(tmp_path, monkeypatch, name, stripe_rows):
    monkeypatch.setattr(cli, "_STRIPE_ROWS", stripe_rows)
    _check_ca_artifacts(STRIPE_CORPORA[name](tmp_path), tmp_path / "out")


@pytest.mark.parametrize("stripe_rows", [1, 2, 3, 64])
def test_zero_coordinate_row_matches_reference(monkeypatch, stripe_rows):
    # a row at the origin has zero cos² on every factor, not 0/0
    monkeypatch.setattr(cli, "_STRIPE_ROWS", stripe_rows)
    rng = np.random.default_rng(31)
    row_coords = rng.normal(size=(70, 9))
    row_coords[65] = 0.0
    model = CAModel(
        eigenvalues=np.linspace(1.0, 0.5, 9), row_coords=row_coords,
        col_coords=np.asfortranarray(rng.normal(size=(5, 9))),
        row_masses=rng.random(70) + 0.5, col_masses=rng.random(5) + 0.5, total_inertia=1.0,
    )
    export = model_export_dict(model, row_ids=list(range(70)), col_ids=list(range(5)))
    buf, rows_csv = io.StringIO(), io.StringIO()
    _dump_leaves(buf, export, {("rows", "coords"): (rows_csv, export["rows"]["ids"])})
    reference = _reference(export)
    assert buf.getvalue() == json.dumps(_tolist(reference), sort_keys=True)
    assert not any(reference["rows"]["cos2"][65])
    header = ",".join(["id"] + [f"f{s + 1}" for s in range(9)]) + "\n"
    want = _reference_csv(export["rows"]["ids"], row_coords).decode()
    assert header + rows_csv.getvalue() == want


def test_stage_ca_holds_no_full_table(tmp_path, monkeypatch):
    # with one worker every stripe forms in this process, and the derived
    # tables are never held whole, so stage_ca stays below one of them.  The
    # text of one stripe and the writers' buffers do not shrink with the
    # table, so the stripes are small and the corpus is eight blocks
    monkeypatch.setattr(_workers, "_default_workers", lambda: 1)
    monkeypatch.setattr(cli, "_STRIPE_ROWS", 4)
    path = write_corpus_csv(scale_corpus_rows(n_blocks=8), tmp_path / "b.csv")
    pipe = cli._Pipeline(cli.PipelineConfig(input=str(path), out=str(tmp_path / "out")))
    pipe.stage_ca()  # fits the model and imports what the writer needs
    tracemalloc.start()
    try:
        pipe.stage_ca()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pipe.model.row_coords.nbytes  # one rows-cloud table


def _started_pools(monkeypatch) -> list:
    """Count the pools started from here on that start workers: one entry
    each (a pool without workers computes every key in the caller)."""
    started = []
    init = _workers._Pool.__init__

    def counted(pool, *args):
        init(pool, *args)
        if pool.procs:
            started.append(pool)

    monkeypatch.setattr(_workers._Pool, "__init__", counted)
    return started


@pytest.mark.parametrize("name", CORPORA)
def test_artifacts_independent_of_worker_count(tmp_path, monkeypatch, name):
    path = CORPORA[name](tmp_path)
    started = _started_pools(monkeypatch)
    pools = []  # pools started per run: the formatting pool, and under all the gates'
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(_workers, "_default_workers", lambda: workers)
        for sub in ("ca", "all"):
            out = tmp_path / f"{sub}{workers}"
            before = len(started)
            assert main([sub, "--input", str(path), "--out", str(out)]) == 0
            pools.append(len(started) - before)
            outputs[sub, workers] = artifact_bytes(out)
    assert pools == [0, 0, 1, 2, 1, 2]
    for sub in ("ca", "all"):
        assert outputs[sub, 2] == outputs[sub, 1]
        assert outputs[sub, 3] == outputs[sub, 1]


def test_export_leaves_are_arrays_and_ids():
    docs = corpus.merge_adjacent_initiating(corpus.load_corpus(SYNTHETIC3))
    tdm = corpus.threshold_matrix(docs, corpus.build_vocabulary(docs), 5, 5)
    seq = [int(s) for s in tdm.principal_seq_nos()]
    export = model_export_dict(fit_ca(tdm.principal_counts()), row_ids=seq, col_ids=tdm.terms)
    for cloud in ("rows", "cols"):
        assert isinstance(export[cloud]["ids"], list)
        for key in ("masses", "coords"):
            assert isinstance(export[cloud][key], np.ndarray)
        # the derived leaves are arrays once sliced, shaped as the coordinates
        for key in ("contributions", "cos2"):
            leaf = export[cloud][key][:]
            assert isinstance(leaf, np.ndarray)
            assert leaf.shape == export[cloud]["coords"].shape


_finite = st.floats(allow_nan=False, allow_infinity=False)
_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    elements=_finite,
)
_leaves = st.one_of(
    _arrays, _finite, st.integers(), st.text(), st.lists(st.text(), max_size=3)
)
_trees = st.recursive(
    _leaves, lambda kids: st.dictionaries(st.text(), kids, max_size=4), max_leaves=12
)


@pytest.fixture
def two_workers(monkeypatch):
    """Format on a two-process pool; returns the pools started."""
    monkeypatch.setattr(_workers, "_default_workers", lambda: 2)
    return _started_pools(monkeypatch)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=_trees, stripe_rows=st.integers(1, 3))
def test_streamed_json_equals_json_dumps(tree, stripe_rows, two_workers, monkeypatch):
    monkeypatch.setattr(cli, "_STRIPE_ROWS", stripe_rows)
    buf = io.StringIO()
    before = len(two_workers)
    _dump_leaves(buf, tree, {})
    assert len(two_workers) == before + 1  # formatted on the pool
    assert buf.getvalue() == json.dumps(_tolist(tree), sort_keys=True)
