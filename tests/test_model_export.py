"""Byte format of the CA factor-space artifacts.

``model.json`` is streamed one leaf at a time; its 2-D float leaves are
formatted in row stripes on a process pool, each coordinate once for
``model.json`` and for ``model_rows.csv``/``model_cols.csv``.  These tests
pin the result to the reference renderings (``json.dumps`` of the whole
export with sorted keys, and ``csv.writer`` with ``_fmt`` per cell) and
check that the bytes do not depend on the number of worker processes.
"""

import csv
import importlib
import io
import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chronosem import cli, corpus
from chronosem.ca import fit_ca, model_export_dict
from chronosem.cli import _dump_leaves, _fmt, _stripe_map, main
from helpers import SYNTHETIC3, scale_corpus_rows, write_corpus_csv

cluster = importlib.import_module("chronosem.cluster")


def _tolist(obj):
    if isinstance(obj, dict):
        return {k: _tolist(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _reference_export(path):
    docs = corpus.merge_adjacent_initiating(corpus.load_corpus(path))
    tdm = corpus.threshold_matrix(docs, corpus.build_vocabulary(docs), 5, 5)
    _, model = fit_ca(tdm.principal_counts())
    seq = [int(s) for s in tdm.principal_seq_nos()]
    return model_export_dict(model, row_ids=seq, col_ids=tdm.terms)


def _reference_csv(ids, coords):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id"] + [f"f{s + 1}" for s in range(coords.shape[1])])
    for i, row in zip(ids, coords):
        writer.writerow([i] + [_fmt(v) for v in row])
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


def _artifact_bytes(out):
    """Every artifact's bytes, and the manifest's hashes (its config names
    the output directory)."""
    got = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    got["manifest.json"] = json.loads((out / "manifest.json").read_text())["artifacts"]
    return got


@pytest.mark.parametrize("name", CORPORA)
def test_artifacts_independent_of_worker_count(tmp_path, monkeypatch, name):
    path = CORPORA[name](tmp_path)
    real_map = cli._stripe_map
    in_process = []

    @contextmanager
    def watched():
        with real_map() as fmt:
            in_process.append(fmt is map)
            yield fmt

    monkeypatch.setattr(cli, "_stripe_map", watched)
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_default_workers", lambda: workers)
        monkeypatch.setattr(cluster, "_default_workers", lambda: workers)
        for sub in ("ca", "all"):
            out = tmp_path / f"{sub}{workers}"
            assert main([sub, "--input", str(path), "--out", str(out)]) == 0
            outputs[sub, workers] = _artifact_bytes(out)
    assert in_process == [True, True, False, False, False, False]
    for sub in ("ca", "all"):
        assert outputs[sub, 2] == outputs[sub, 1]
        assert outputs[sub, 3] == outputs[sub, 1]


def test_export_leaves_are_arrays_and_ids():
    export = _reference_export(SYNTHETIC3)
    for cloud in ("rows", "cols"):
        assert isinstance(export[cloud]["ids"], list)
        for key in ("masses", "coords", "contributions", "cos2"):
            assert isinstance(export[cloud][key], np.ndarray)


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


@pytest.fixture(scope="module")
def pool_map():
    """A two-process formatting pool, shared by the property's examples."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_default_workers", lambda: 2)
        with _stripe_map() as fmt:
            assert fmt is not map
            yield fmt


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=_trees, stripe_rows=st.integers(1, 3))
def test_streamed_json_equals_json_dumps(tree, stripe_rows, pool_map, monkeypatch):
    monkeypatch.setattr(cli, "_STRIPE_ROWS", stripe_rows)
    buf = io.StringIO()
    _dump_leaves(buf, tree, pool_map)
    assert buf.getvalue() == json.dumps(_tolist(tree), sort_keys=True)
