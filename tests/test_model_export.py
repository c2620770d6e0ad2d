"""Byte format of the CA factor-space artifacts.

``model.json`` is streamed one leaf at a time and each coordinate is
formatted once for it and for ``model_rows.csv``/``model_cols.csv``; these
tests pin the result to the reference renderings: ``json.dumps`` of the
whole export with sorted keys, and ``csv.writer`` with ``_fmt`` per cell.
"""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chronosem import corpus
from chronosem.ca import fit_ca, model_export_dict
from chronosem.cli import _dump_leaves, _fmt, main
from helpers import SYNTHETIC3, scale_corpus_rows, write_corpus_csv


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


def test_synthetic3_artifacts_match_reference_renderings(tmp_path):
    _check_ca_artifacts(SYNTHETIC3, tmp_path / "out")


def test_block_corpus_artifacts_match_reference_renderings(tmp_path):
    path = write_corpus_csv(scale_corpus_rows(n_blocks=4), tmp_path / "blocks.csv")
    _check_ca_artifacts(path, tmp_path / "out")


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


@settings(deadline=None)
@given(_trees)
def test_streamed_json_equals_json_dumps(tree):
    buf = io.StringIO()
    _dump_leaves(buf, tree, {})
    assert buf.getvalue() == json.dumps(_tolist(tree), sort_keys=True)
