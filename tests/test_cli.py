import contextlib
import csv
import errno
import hashlib
import importlib
import io
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from chronosem import cli as cli_module
from chronosem import _workers, ca, impact, segmentation
from chronosem.cli import (
    INTERRUPTED_EXIT,
    MAX_PERMUTATIONS,
    SUBCOMMANDS,
    UNEXPECTED_ERROR_EXIT,
    PipelineConfig,
    _build_parser,
    _format_stripe,
    _Pipeline,
    main,
    run,
)
from chronosem.errors import ConfigError
from helpers import (
    SYNTHETIC3,
    artifact_bytes,
    scale_corpus_rows,
    synthetic_corpus_rows,
    write_corpus_csv,
)

ALL_ARTIFACTS = {
    "matrix.csv", "matrix_roles.json", "vocab.csv",
    "model.json", "model_rows.csv", "model_cols.csv",
    "dendrogram.json", "dendrogram.newick", "dendrogram.csv",
    "segments.json", "segments.csv",
    "impact.json", "impact.csv", "impact_curve.csv",
}
INGEST_ARTIFACTS = {"matrix.csv", "matrix_roles.json", "vocab.csv"}


def cli(*argv):
    return main([str(a) for a in argv])


def _exit_worker(block, ids):
    """Stands in for the stripe formatter: the worker process dies."""
    os._exit(1)


def _pooled_gates(monkeypatch, workers):
    """Run segment's gates on a pool of ``workers``; returns the list that
    counts the results the workers send back."""
    monkeypatch.setattr(_workers, "_default_workers", lambda: workers)
    collected = []
    collect = _workers._Pool._collect

    def counted(pool, conn):
        collect(pool, conn)
        collected.append(conn)

    monkeypatch.setattr(_workers._Pool, "_collect", counted)
    return collected


_MARKERS = None  # directory in which _marking_worker leaves one file per stripe


def _marking_worker(block, ids):
    """Stands in for the stripe formatter: a slow one that leaves a file
    per stripe it formats."""
    (_MARKERS / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
    time.sleep(0.005)
    return _format_stripe(block, ids)


class _FullDisk:
    """A text file whose writes fail with ENOSPC after the first few."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, text):
        self.writes -= 1
        if self.writes < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


class TestRunAll:
    def test_bundled_fixture_full_chain(self, tmp_path):
        out = tmp_path / "out"
        code = cli("all", "--input", SYNTHETIC3, "--out", out, "--seed", 3,
                   "--permutations", 500)
        assert code == 0
        written = {p.name for p in out.iterdir()}
        assert ALL_ARTIFACTS <= written
        assert len(ALL_ARTIFACTS) >= 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert {a["path"] for a in manifest["artifacts"]} == ALL_ARTIFACTS
        for a in manifest["artifacts"]:
            digest = hashlib.sha256((out / a["path"]).read_bytes()).hexdigest()
            assert digest == a["sha256"]

    def test_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli("all", "--input", SYNTHETIC3, "--out", out, "--seed", 11,
                       "--permutations", 500) == 0
            outs.append(out)
        for fname in ALL_ARTIFACTS:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_changes_permutation_outcomes_only_deterministically(self, tmp_path):
        out = tmp_path / "c"
        assert cli("all", "--input", SYNTHETIC3, "--out", out, "--seed", 12,
                   "--permutations", 500) == 0
        seg = json.loads((out / "segments.json").read_text())
        assert seg["config"]["rng_seed"] == 12
        members = [m for s in seg["segments"] for m in s["members"]]
        assert members == sorted(members)


class TestBlasThreads:
    """The package runs BLAS on one thread, so a rerun writes the same
    bytes whatever thread count the environment asks for."""

    @pytest.mark.parametrize("sub", ["ca", "all"])
    def test_same_bytes_at_any_thread_count(self, tmp_path, sub):
        # a threaded SVD picks another basis for this corpus's near-tied
        # trailing factors (196 rows, 74 factors)
        corpus = write_corpus_csv(scale_corpus_rows(n_blocks=4, seed=101), tmp_path / "c.csv")
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = src
        got = {}
        for threads in ("1", "2", None):
            out = tmp_path / f"threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "chronosem.cli", sub, "--input", corpus,
                 "--out", out, "--seed", "101", "--permutations", "200"],
                env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
                check=True, timeout=120,
            )
            got[threads] = artifact_bytes(out)
        for threads in ("2", None):
            assert got[threads].keys() == got["1"].keys()
            differ = [name for name in got["1"] if got[threads][name] != got["1"][name]]
            assert differ == [], f"OPENBLAS_NUM_THREADS={threads}"


class TestSharedDistances:
    @pytest.mark.parametrize(
        "subcommand, dims, builds",
        [
            ("all", "full", 1), ("all", "plane", 2), ("impact", "full", 1),
            ("impact", "plane", 1), ("cluster", "full", 1), ("cluster", "plane", 1),
            ("segment", "full", 0), ("segment", "plane", 0),
        ],
    )
    def test_distances_built_once_per_view(
        self, tmp_path, monkeypatch, subcommand, dims, builds
    ):
        config = PipelineConfig(input=str(SYNTHETIC3), out=str(tmp_path / "fit"))
        n_factors = _Pipeline(config).model.n_factors
        assert n_factors > 2
        cluster_module = importlib.import_module("chronosem.cluster")
        original = cluster_module.pdist
        calls = []

        def counted(points):
            calls.append(np.shape(points))
            return original(points)

        for module in (cluster_module, segmentation, impact):
            monkeypatch.setattr(module, "pdist", counted)
        assert cli(subcommand, "--input", SYNTHETIC3, "--out", tmp_path, "--dims", dims,
                   "--permutations", 200) == 0
        assert len(calls) == builds
        # cluster reads the --dims view, first; impact always scores the
        # full factor space
        plane = dims == "plane" and subcommand in ("all", "cluster")
        assert [width for _, width in calls] == [2] * plane + [n_factors] * (builds - plane)

    def test_impact_scores_against_the_vector_cluster_got(self, tmp_path, monkeypatch):
        build, stats = cli_module.build_dendrogram, impact.pairwise_distance_stats
        handed, scored = [], []

        def recording_build(points, ids=None, dist=None):
            handed.append(dist)
            return build(points, ids=ids, dist=dist)

        def recording_stats(coords, dist=None):
            scored.append(stats(coords, dist))
            return scored[-1]

        monkeypatch.setattr(cli_module, "build_dendrogram", recording_build)
        monkeypatch.setattr(impact, "pairwise_distance_stats", recording_stats)
        assert cli("all", "--input", SYNTHETIC3, "--out", tmp_path, "--dims", "full",
                   "--permutations", 200) == 0
        assert len(handed) == len(scored) == 1
        assert scored[0].distances is handed[0]

    @pytest.mark.parametrize(
        "blocks, dims",
        [
            pytest.param(False, "full", id="full"),
            pytest.param(False, "plane", id="plane"),
            # a cloud of many factors, as the benchmark corpora give
            pytest.param(True, "full", id="blocks-full"),
            pytest.param(True, "plane", id="blocks-plane"),
        ],
    )
    def test_all_matches_separate_subcommands(self, tmp_path, blocks, dims):
        corpus = (
            write_corpus_csv(scale_corpus_rows(n_blocks=4), tmp_path / "blocks.csv")
            if blocks
            else SYNTHETIC3
        )
        flags = ("--input", corpus, "--dims", dims, "--seed", 5, "--permutations", 300)
        assert cli("all", "--out", tmp_path / "all", *flags) == 0
        for stage in ("cluster", "segment", "impact"):
            out = tmp_path / stage
            assert cli(stage, "--out", out, *flags) == 0
            names = [p.name for p in out.iterdir() if p.name != "manifest.json"]
            assert names
            for name in names:
                assert (out / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_gate_pool_artifacts_independent_of_worker_count(self, tmp_path, monkeypatch):
        path = write_corpus_csv(scale_corpus_rows(n_blocks=4), tmp_path / "blocks.csv")
        outputs = {}
        collected = _pooled_gates(monkeypatch, 1)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "_default_workers", lambda: workers)
            collected.clear()
            for sub in ("segment", "all"):
                out = tmp_path / f"{sub}{workers}"
                assert cli(sub, "--input", path, "--out", out, "--permutations", 500) == 0
                outputs[sub, workers] = {
                    p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
                }
                outputs[sub, workers]["manifest.json"] = json.loads(
                    (out / "manifest.json").read_text()
                )["artifacts"]
            assert bool(collected) == (workers > 1)
        for sub in ("segment", "all"):
            assert "segments.json" in outputs[sub, 1]
            assert outputs[sub, 2] == outputs[sub, 1]
            assert outputs[sub, 3] == outputs[sub, 1]

    def test_manifest_hashes_files_larger_than_one_block(self, tmp_path):
        # over 1 MiB in 400 writes of 1 to 31,894 bytes, smaller and larger
        # than the writer's buffer, of characters one to four bytes long
        pipe = _Pipeline(PipelineConfig(input=str(SYNTHETIC3), out=str(tmp_path)))
        sizes = (2 ** np.random.default_rng(0).uniform(0, 14, 400)).astype(int)
        pieces = [("a\u00e9\u20ac\U0001d11e\r\n" * 3000)[:n] for n in sizes.tolist()]
        with pipe._open("big.txt") as fh:
            for piece in pieces:
                fh.write(piece)
        pipe.write_manifest("ingest")
        data = (tmp_path / "big.txt").read_bytes()
        assert len(data) > 1 << 20 and data == "".join(pieces).encode("utf-8")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        digest = hashlib.sha256(data).hexdigest()
        assert manifest["artifacts"] == [{"path": "big.txt", "sha256": digest}]


class TestSparseTables:
    def test_every_fit_reads_a_csr_array(self, tmp_path, monkeypatch):
        # the main fit, the segment map and the drill-down slice and sum
        # their tables in CSR; only normalize makes a table dense
        tables = []
        normalize = ca.normalize
        monkeypatch.setattr(ca, "normalize", lambda t: tables.append(t) or normalize(t))
        blocks = write_corpus_csv(scale_corpus_rows(n_blocks=4), tmp_path / "blocks.csv")
        assert cli("all", "--input", blocks, "--out", tmp_path / "all",
                   "--permutations", 200) == 0
        assert len(tables) == 2
        assert cli("drilldown", "--input", SYNTHETIC3, "--out", tmp_path / "dd",
                   "--campaign", 2) == 0
        assert len(tables) == 3
        assert [type(t) for t in tables] == [sparse.csr_array] * 3


class TestSubcommands:
    def test_ingest_matrix_matches_roles(self, tmp_path):
        out = tmp_path / "ing"
        assert cli("ingest", "--input", SYNTHETIC3, "--out", out) == 0
        roles = json.loads((out / "matrix_roles.json").read_text())
        n_rows, n_cols = roles["shape"]
        lines = (out / "matrix.csv").read_text().strip().splitlines()
        assert lines[0] == "row,col,value"
        triples = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
        assert max(t[0] for t in triples) == n_rows - 1
        assert max(t[1] for t in triples) == n_cols - 1
        assert all(v > 0 for _, _, v in triples)

    def test_ca_csv_has_header_per_factor(self, tmp_path):
        out = tmp_path / "ca"
        assert cli("ca", "--input", SYNTHETIC3, "--out", out) == 0
        model = json.loads((out / "model.json").read_text())
        header = (out / "model_rows.csv").read_text().splitlines()[0]
        assert header.split(",")[1:] == [f"f{s+1}" for s in range(model["n_factors"])]

    def test_segment_respects_alpha_flag(self, tmp_path):
        out = tmp_path / "seg"
        assert cli("segment", "--input", SYNTHETIC3, "--out", out,
                   "--alpha", "0.3", "--permutations", "400") == 0
        seg = json.loads((out / "segments.json").read_text())
        assert seg["config"]["alpha"] == 0.3
        for b in seg["blocked"]:
            assert b["p"] <= 0.3

    def test_dims_plane_restricts_coordinates(self, tmp_path):
        out_full = tmp_path / "full"
        out_plane = tmp_path / "plane"
        for out, dims in ((out_full, "full"), (out_plane, "plane")):
            assert cli("segment", "--input", SYNTHETIC3, "--out", out,
                       "--dims", dims, "--permutations", "400") == 0
        full = json.loads((out_full / "segments.json").read_text())
        plane = json.loads((out_plane / "segments.json").read_text())
        assert full["config"]["dims"] == "full"
        assert plane["config"]["dims"] == "plane"

    def test_impact_curve_columns(self, tmp_path):
        out = tmp_path / "imp"
        assert cli("impact", "--input", SYNTHETIC3, "--out", out) == 0
        lines = (out / "impact_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "campaign,distance_plane,distance_full"
        assert len(lines) == 4  # three campaigns
        for ln in lines[1:]:
            _, plane, full = ln.split(",")
            assert float(plane) <= float(full)

    def test_parser_defaults_are_the_configs(self, capsys):
        # PipelineConfig owns every flag's default, PermTestConfig the gate's
        args = vars(_build_parser().parse_args(["all", "--input", "a", "--out", "b"]))
        assert args.pop("subcommand") == "all"
        config = PipelineConfig(**args)
        assert config == PipelineConfig(input="a", out="b")
        gate = segmentation.PermTestConfig()
        assert (config.alpha, config.n_permutations, config.rng_seed) == (
            gate.alpha, gate.n_permutations, gate.rng_seed)
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["all", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "(default 0.15)" in help_text and "(default 5000)" in help_text

    def test_impact_csv_columns_match_the_report(self, tmp_path):
        out = tmp_path / "imp"
        assert cli("impact", "--input", SYNTHETIC3, "--out", out) == 0
        with open(out / "impact.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["campaign", "distance_plane", "distance_full", "z_score",
                          "two_sided_tail_percent", "percent_pairs_below"]
        campaigns = json.loads((out / "impact.json").read_text())["campaigns"]
        assert [list(map(float, row)) for row in rows] == [
            [float(c[k]) for k in header] for c in campaigns]

    def test_newick_leaves_are_the_dendrogram_leaves(self, tmp_path):
        # the Newick names each leaf by its seq_no, in the leaves' order
        assert cli("cluster", "--input", SYNTHETIC3, "--out", tmp_path) == 0
        leaves = json.loads((tmp_path / "dendrogram.json").read_text())["leaves"]
        newick = (tmp_path / "dendrogram.newick").read_text()
        assert leaves != list(range(len(leaves)))
        assert re.findall(r"[(,]([^(),:]+):", newick) == [str(v) for v in leaves]

    def test_drilldown_artifacts(self, tmp_path):
        out = tmp_path / "dd"
        assert cli("drilldown", "--input", SYNTHETIC3, "--out", out,
                   "--campaign", 2, "--top-tweets", 4, "--top-terms", 6) == 0
        dd = json.loads((out / "drilldown.json").read_text())
        assert dd["campaign"] == 2
        assert len(dd["top_tweets"]) == 4
        assert len(dd["top_terms"]) == 6

    def test_artifacts_printed_and_returned_in_write_order(self, tmp_path, capsys):
        # the manifest lists them sorted by name, which here is another order
        out = tmp_path / "dd"
        argv = ["--input", SYNTHETIC3, "--out", out, "--campaign", 2]
        assert cli("drilldown", *argv) == 0
        names = ["drilldown.json", "drilldown_tweets.csv", "drilldown_terms.csv"]
        written = [out / name for name in [*names, "manifest.json"]]
        assert capsys.readouterr().out == "".join(f"{p}\n" for p in written)
        manifest = json.loads((out / "manifest.json").read_text())
        assert [a["path"] for a in manifest["artifacts"]] == sorted(names)
        config = PipelineConfig(input=str(SYNTHETIC3), out=str(out), campaign=2)
        assert run("drilldown", config) == written


class TestCsvFloats:
    """A float cell of a CSV artifact is the ``repr`` of the Python float
    that the matching JSON artifact or library result holds."""

    def test_cells_are_reprs_of_the_json_values(self, tmp_path, monkeypatch):
        maps = []
        factor_map = segmentation.segment_centroids_as_supplementary

        def kept(*args):
            maps.append(factor_map(*args))
            return maps[-1]

        monkeypatch.setattr(segmentation, "segment_centroids_as_supplementary", kept)
        out = tmp_path / "out"
        assert cli("all", "--input", SYNTHETIC3, "--out", out, "--permutations", 500) == 0
        assert cli("drilldown", "--input", SYNTHETIC3, "--out", out, "--campaign", 2) == 0

        def cells(name, columns):
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            return [[row[header.index(c)] for c in columns] for row in rows]

        def reprs(table):
            assert all(type(v) is float for row in table for v in row)
            return [[repr(v) for v in row] for row in table]

        def loaded(name):
            return json.loads((out / name).read_text())

        (fmap,) = maps
        coords = [(row + [0.0, 0.0])[:2] for row in fmap.coords.tolist()]
        assert cells("segments.csv", ["f1", "f2"]) == reprs(coords)
        columns = ["distance_plane", "distance_full", "z_score",
                   "two_sided_tail_percent", "percent_pairs_below"]
        records = [[c[k] for k in columns] for c in loaded("impact.json")["campaigns"]]
        assert len(records) == 3
        assert cells("impact.csv", columns) == reprs(records)
        assert cells("impact_curve.csv", columns[:2]) == reprs([r[:2] for r in records])
        heights = [[m["height"]] for m in loaded("dendrogram.json")["merges"]]
        assert cells("dendrogram.csv", ["height"]) == reprs(heights)
        drill = loaded("drilldown.json")
        for name, key, score in (
            ("drilldown_tweets.csv", "top_tweets", "plane_contribution_percent"),
            ("drilldown_terms.csv", "top_terms", "plane_magnitude"),
        ):
            top = [[t[score], *(t["coords"] + [0.0, 0.0])[:2]] for t in drill[key]]
            assert top and cells(name, [score, "f1", "f2"]) == reprs(top)

    def test_csv_writes_float_reprs(self, tmp_path):
        pipe = _Pipeline(PipelineConfig(input=str(SYNTHETIC3), out=str(tmp_path)))
        values = [math.nan, -0.0, 1e-05, 1e16, 0.1 + 0.2]
        pipe._csv("floats.csv", [("a", "b", "c", "d", "e"), values])
        text = (tmp_path / "floats.csv").read_bytes().decode("utf-8")
        assert text == "a,b,c,d,e\nnan,-0.0,1e-05,1e+16,0.30000000000000004\n"
        assert list(pipe.artifacts) == [tmp_path / "floats.csv"]


class TestErrors:
    def test_missing_input_exit_2_names_path(self, tmp_path, capsys):
        code = cli("all", "--input", tmp_path / "nope.csv", "--out", tmp_path / "x")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["path"].endswith("nope.csv")

    @pytest.mark.parametrize("flag", ["--input", "--stopwords"])
    def test_error_path_keeps_a_colon_in_the_name(self, tmp_path, capsys, flag):
        missing = tmp_path / "no: such.csv"
        argv = [flag, missing] if flag == "--input" else ["--input", SYNTHETIC3, flag, missing]
        assert cli("ingest", *argv, "--out", tmp_path / "x") == 2
        assert json.loads(capsys.readouterr().err)["path"] == str(missing)

    @pytest.mark.parametrize("flag", ["--input", "--stopwords", "--out"])
    def test_over_long_name_exit_2_names_path(self, tmp_path, capsys, flag):
        # a 300-character component is over every common file system's 255
        # limit; Path.is_file and Path.mkdir raise ENAMETOOLONG on it
        long = tmp_path / ("n" * 300)
        argv = {"--input": ["--input", long, "--out", tmp_path / "x"],
                "--stopwords": ["--input", SYNTHETIC3, "--stopwords", long,
                                "--out", tmp_path / "x"],
                "--out": ["--input", SYNTHETIC3, "--out", long]}[flag]
        assert cli("ingest", *argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["path"] == str(long)

    def test_error_without_a_path_has_no_path_key(self, tmp_path, capsys):
        # the message holds ": " but names no path
        assert cli("all", "--input", SYNTHETIC3, "--out", tmp_path / "x", "--dims", "a: b") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "path" not in err

    def test_drilldown_requires_campaign(self, tmp_path, capsys):
        code = cli("drilldown", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_drilldown_of_unlabelled_documents_exit_3(self, tmp_path, capsys):
        # -1 marks "no campaign"; the unlabelled documents are not a campaign
        rows = [
            (s, text, init, None if c == 1 and not init else c)
            for s, text, init, c in scale_corpus_rows(n_blocks=4, seed=101)
        ]
        corpus = write_corpus_csv(rows, tmp_path / "unlabelled.csv")
        out = tmp_path / "x"
        assert cli("drilldown", "--input", corpus, "--out", out, "--campaign", -1) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "EmptyCampaign"
        assert not (out / "drilldown.json").exists()

    def test_data_error_exit_3(self, tmp_path, capsys):
        corpus = write_corpus_csv(
            [(1, "one off words", 0, 1), (2, "more rare terms", 0, 1)],
            tmp_path / "tiny.csv",
        )
        code = cli("all", "--input", corpus, "--out", tmp_path / "x")
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "AllDocumentsEmpty"

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "1.5"), ("--dims", "bogus"), ("--seed", "-1")],
        ids=["alpha", "dims", "seed"],
    )
    def test_bad_alpha_rejected(self, tmp_path, capsys, flag, value):
        code = cli("segment", "--input", SYNTHETIC3, "--out", tmp_path / "x", flag, value)
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    @pytest.mark.parametrize("n, ok", [(1, True), (1_000_000, True), (1_000_001, False)])
    def test_permutation_count_capped(self, tmp_path, n, ok):
        # checked before any gate runs, so no label array is allocated
        config = PipelineConfig(input=str(SYNTHETIC3), out=str(tmp_path / "x"), n_permutations=n)
        if ok:
            cli_module._validate(config, "segment")
        else:
            with pytest.raises(ConfigError, match="--permutations"):
                cli_module._validate(config, "segment")

    def test_permutation_count_beyond_numpy_exit_2(self, tmp_path, capsys):
        code = cli("segment", "--input", SYNTHETIC3, "--out", tmp_path / "x",
                   "--permutations", "100000000000000000000")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_numeric_error_exit_4(self, tmp_path, capsys):
        # identical documents give a zero-inertia model: no factor spread
        corpus = write_corpus_csv(
            [(s, "same words every time", int(s == 1), 1) for s in range(1, 9)],
            tmp_path / "flat.csv",
        )
        code = cli("impact", "--input", corpus, "--out", tmp_path / "x")
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DegenerateSpread"

    def test_failed_run_leaves_no_stale_manifest(self, tmp_path, capsys):
        out = tmp_path / "reuse"
        assert cli("all", "--input", SYNTHETIC3, "--out", out, "--permutations", 200) == 0
        manifest = (out / "manifest.json").read_bytes()
        # a run that fails before its first file leaves the directory as it was
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"seq_no,text,is_initiating,campaign\n1,a b,yes,1\n")
        assert cli("all", "--input", bad, "--out", out) == 3
        assert (out / "manifest.json").read_bytes() == manifest
        # one that fails after writing leaves no manifest naming the old files
        flat = write_corpus_csv(
            [(s, "alpha beta gamma delta", int(s == 1), 1) for s in range(1, 10)],
            tmp_path / "flat.csv",
        )
        assert cli("all", "--input", flat, "--out", out) == 4
        err = capsys.readouterr().err.splitlines()
        assert json.loads(err[-1])["error"] == "DegenerateSpread"
        assert (out / "matrix.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "name, content, line",
        [
            ("float_campaign.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c d,0,1.0\n", 3),
            ("malformed.jsonl", b'{"seq_no": 1, "text": "a b"}\n\n{"seq_no": 2, "text": \n', 3),
            ("latin1.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,caf\xe9,0,1\n", 3),
            ("short_row.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2\n", 3),
            ("two_field_row.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c d\n", 3),
            ("yes_flag.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c d,yes,1\n", 3),
            ("two_flag.jsonl", b'{"seq_no": 1, "text": "a b", "is_initiating": 2}\n', 1),
            ("no_campaign.csv", b"seq_no,text,is_initiating,campaign\n1,alpha beta,1,\n", 2),
            # over csv.field_size_limit() (131072) and over Python's 4300-digit
            # int parsing limit
            ("long_field.csv",
             b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2," + b"a" * 200_000 + b",0,1\n", 3),
            ("long_int.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": ' + b"9" * 5000 + b"}\n", 2),
            # csv.reader reads a NUL on Python 3.11+ and rejects it before
            ("nul.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c\0d,0,1\n", 3),
            ("underscore_id.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c d,0,1_0\n", 3),
            ("null_text.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": null}\n', 2),
            # a text must be a string, never the str() of another JSON value
            ("list_text.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": ["a"]}\n', 2),
            ("dict_text.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": {"t": "a"}}\n', 2),
            ("int_text.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": 7}\n', 2),
            ("float_text.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": 1.5}\n', 2),
            ("bool_text.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": true}\n', 2),
            # a record that is not an object, and one without a seq_no
            ("list_record.jsonl", b'{"seq_no": 1, "text": "a b"}\n[2, "c d"]\n', 2),
            ("no_seq_no.jsonl", b'{"seq_no": 1, "text": "a b"}\n{"text": "c d"}\n', 2),
            # nested past the JSON decoder's recursion limit on every Python
            ("deep.jsonl",
             b'{"seq_no": 1, "text": "a b"}\n{"seq_no": 2, "text": '
             + b"[" * 100_000 + b"]" * 100_000 + b"}\n", 2),
        ],
        ids=[
            "float_campaign", "malformed_jsonl", "non_utf8", "short_row",
            "two_field_row", "yes_initiating", "numeric_initiating", "initiating_without_campaign",
            "field_over_csv_limit", "integer_over_digit_limit", "nul_byte",
            "underscore_in_id", "null_text", "list_text", "dict_text", "int_text",
            "float_text", "bool_text", "list_record", "no_seq_no", "nesting_over_recursion_limit",
        ],
    )
    def test_bad_corpus_record_exit_3_names_line(self, tmp_path, capsys, name, content, line):
        corpus = tmp_path / name
        corpus.write_bytes(content)
        code = cli("ingest", "--input", corpus, "--out", tmp_path / "x")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorpusFormatError"
        assert f"{corpus}:{line}:" in err["message"]

    @pytest.mark.parametrize(
        "row, seq_no, campaign",
        [(60, 10**20, 3), (20, 21, 10**30), (0, 1, -1), (0, -1, 1)],
        ids=["seq_no_beyond_int64", "campaign_beyond_int64", "negative_campaign",
             "negative_seq_no"],
    )
    def test_id_outside_int64_exit_3_names_line(self, tmp_path, capsys, row, seq_no, campaign):
        rows = synthetic_corpus_rows() + [(61, "garden seed soil bloom", 0, 3)]
        rows[row] = (seq_no, rows[row][1], rows[row][2], campaign)
        corpus = write_corpus_csv(rows, tmp_path / "ids.csv")
        code = cli("all", "--input", corpus, "--out", tmp_path / "x", "--permutations", 200)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorpusFormatError"
        assert f"{corpus}:{row + 2}:" in err["message"]

    def test_byte_order_mark_accepted(self, tmp_path):
        corpus = tmp_path / "bom.csv"
        corpus.write_bytes(b"\xef\xbb\xbf" + SYNTHETIC3.read_bytes())
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"\xef\xbb\xbfgarden\nmusic\n")
        for name, argv in (("plain", [SYNTHETIC3]), ("bom", [corpus, "--stopwords", stop])):
            assert cli("ingest", "--input", *argv, "--out", tmp_path / name) == 0
        roles = json.loads((tmp_path / "bom" / "matrix_roles.json").read_text())
        terms = {c["name"] for c in roles["cols"] if c["role"] == "term"}
        assert "space" in terms and not terms & {"garden", "music"}
        plain = json.loads((tmp_path / "plain" / "matrix_roles.json").read_text())
        assert roles["rows"] == plain["rows"]

    @pytest.mark.parametrize("flag", ["--top-tweets", "--top-terms"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_top_list_sizes_must_be_positive(self, tmp_path, capsys, flag, value):
        code = cli("drilldown", "--input", SYNTHETIC3, "--out", tmp_path / "x",
                   "--campaign", 2, flag, value)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("flag", ["--input", "--stopwords"])
    def test_directory_path_exit_2(self, tmp_path, capsys, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        if flag == "--input":
            argv = ["--input", folder]
        else:
            argv = ["--input", SYNTHETIC3, "--stopwords", folder]
        code = cli("ingest", *argv, "--out", tmp_path / "x")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["path"] == str(folder)

    def test_non_utf8_stopwords_exit_3_names_path(self, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"garden\ncaf\xe9\n")
        code = cli("ingest", "--input", SYNTHETIC3, "--out", tmp_path / "x",
                   "--stopwords", stop)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorpusFormatError"
        assert f"{stop}:2:" in err["message"]

    def test_non_finite_svd_exit_4(self, tmp_path, capsys, monkeypatch):
        svd = np.linalg.svd

        def poisoned(*args, **kwargs):
            u, s, vt = svd(*args, **kwargs)
            return u * np.nan, s, vt

        monkeypatch.setattr(np.linalg, "svd", poisoned)
        code = cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceError"

    def test_table_too_large_exit_4(self, tmp_path, capsys, monkeypatch):
        shapes = []

        def too_large(counts):
            shapes.append(np.shape(counts))
            raise MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                              "(20000, 20000) and data type float64")

        monkeypatch.setattr(ca, "normalize", too_large)
        code = cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "TableTooLarge"
        assert str(shapes[0]) in payload["message"] and "2.98 GiB" in payload["message"]

    def _assert_unexpected(self, capfd, code, error):
        assert code == UNEXPECTED_ERROR_EXIT == 5
        err = capfd.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err.strip().splitlines()[-1])
        assert sorted(payload) == ["error", "message"]
        assert payload["error"] == error
        return payload

    def test_dead_formatter_worker_exit_5(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(_workers, "_default_workers", lambda: 2)
        monkeypatch.setattr(cli_module, "_format_stripe", _exit_worker)
        code = cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        self._assert_unexpected(capfd, code, "BrokenProcessPool")

    def test_dead_gate_worker_exit_5(self, tmp_path, capfd, monkeypatch):
        import multiprocessing

        collected = _pooled_gates(monkeypatch, 2)
        parent, gate = os.getpid(), segmentation._gate

        def dying(block, config, key):
            if os.getpid() != parent:
                os._exit(1)
            return gate(block, config, key)

        monkeypatch.setattr(segmentation, "_gate", dying)
        code = cli("segment", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        self._assert_unexpected(capfd, code, "BrokenProcessPool")
        assert collected == [] and multiprocessing.active_children() == []

    def test_failed_write_cancels_queued_stripes(self, tmp_path, capfd, monkeypatch):
        markers = tmp_path / "formatted"
        markers.mkdir()
        monkeypatch.setattr(sys.modules[__name__], "_MARKERS", markers)
        monkeypatch.setattr(_workers, "_default_workers", lambda: 2)
        monkeypatch.setattr(cli_module, "_STRIPE_ROWS", 1)
        monkeypatch.setattr(cli_module, "_format_stripe", _marking_worker)
        assert cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "whole") == 0
        stripes = len(list(markers.iterdir()))
        for marker in markers.iterdir():
            marker.unlink()

        dump = cli_module._dump_leaves
        monkeypatch.setattr(
            cli_module, "_dump_leaves", lambda fh, *a: dump(_FullDisk(fh, 10), *a)
        )
        code = cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        payload = self._assert_unexpected(capfd, code, "OSError")
        assert "No space left on device" in payload["message"]
        # only the stripes already running or handed to a worker finish
        assert len(list(markers.iterdir())) < stripes // 4

    def test_unexpected_stage_error_exit_5(self, tmp_path, capfd, monkeypatch):
        def broken(self):
            raise RuntimeError("stage broke")

        monkeypatch.setattr(_Pipeline, "stage_ca", broken)
        code = cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        payload = self._assert_unexpected(capfd, code, "RuntimeError")
        assert payload["message"] == "stage broke"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    def test_out_not_a_directory_exit_2_names_path(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        out = taken / "sub" if below else taken
        assert cli("ca", "--input", SYNTHETIC3, "--out", out) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["path"] == str(out)
        assert taken.read_text() == "a file, not a directory\n"

    def test_empty_out_exit_2_names_path(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, whose manifest a run would replace
        monkeypatch.chdir(tmp_path)
        (tmp_path / "manifest.json").write_text("{}\n")
        assert cli("ingest", "--input", SYNTHETIC3, "--out", "") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ConfigError"
        assert payload["path"] == ""
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        assert (tmp_path / "manifest.json").read_text() == "{}\n"

    def test_unwritable_output_exit_5(self, tmp_path, capfd, monkeypatch):
        # an output directory the system refuses to create is an I/O error,
        # not a config error
        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr(Path, "mkdir", denied)
        code = cli("ca", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        self._assert_unexpected(capfd, code, "PermissionError")

    def test_failed_print_of_the_artifact_list_exit_5(self, tmp_path, capfd, monkeypatch):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = cli("ingest", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        payload = self._assert_unexpected(capfd, code, "OSError")
        assert "No space left on device" in payload["message"]

    @pytest.mark.parametrize("stdout", ["/dev/full", "closed pipe"])
    def test_unwritable_stdout_exit_5(self, tmp_path, stdout):
        if stdout == "closed pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            out = open(write_end, "wb")
        elif os.path.exists(stdout):
            out = open(stdout, "wb")
        else:
            pytest.skip("no /dev/full")
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        # stdout block-buffered, as it is by default when not a terminal
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with out:
            done = subprocess.run(
                [sys.executable, "-m", "chronosem.cli", "ingest", "--input", str(SYNTHETIC3),
                 "--out", str(tmp_path / "x")],
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**env, "PYTHONPATH": src},
            )
        assert done.returncode == UNEXPECTED_ERROR_EXIT
        # one JSON line, and no second error from the interpreter's exit flush
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
        assert sorted(json.loads(done.stderr)) == ["error", "message"]

    # Ctrl-C sends SIGINT to the terminal's whole process group: the CLI and
    # its workers.  Here the first stripe formatted sends it, from whichever
    # process formats it; on two cores the formatting workers are running
    _INTERRUPTED = textwrap.dedent('''
        import os, signal, sys
        cores = int(sys.argv[3])
        usable = sorted(os.sched_getaffinity(0))
        if len(usable) >= cores:
            os.sched_setaffinity(0, usable[:cores])
        else:  # the pool still forks a worker per core asked for
            os.sched_getaffinity = lambda pid: set(range(cores))
        from chronosem import cli
        format_stripe = cli._format_stripe

        def interrupting(block, ids):
            try:
                os.close(os.open(sys.argv[2] + ".sent", os.O_CREAT | os.O_EXCL))
                os.killpg(0, signal.SIGINT)
            except FileExistsError:  # another stripe sent it
                pass
            return format_stripe(block, ids)

        cli._format_stripe = interrupting
        sys.exit(cli.main(["ca", "--input", sys.argv[1], "--out", sys.argv[2]]))
    ''')

    @pytest.mark.parametrize("cores", [1, 2])
    def test_ctrl_c_exit_130_with_one_json_line(self, tmp_path, cores):
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        out = tmp_path / "x"
        # a session of its own, so the signal reaches this process group only
        run_cli = subprocess.Popen(
            [sys.executable, "-c", self._INTERRUPTED, str(SYNTHETIC3), str(out), str(cores)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True, env={**os.environ, "PYTHONPATH": src},
        )
        try:
            _, err = run_cli.communicate(timeout=60)
        finally:
            run_cli.kill()
        assert (tmp_path / "x.sent").exists()
        assert run_cli.returncode == INTERRUPTED_EXIT == 130
        assert err.splitlines() == ['{"error": "KeyboardInterrupt", "message": ""}']
        assert not (out / "manifest.json").exists()
        with pytest.raises(ProcessLookupError):  # no worker outlives the CLI
            os.killpg(run_cli.pid, 0)

    def test_run_api_validates_subcommand(self, tmp_path):
        config = PipelineConfig(input=str(SYNTHETIC3), out=str(tmp_path / "o"))
        with pytest.raises(ConfigError):
            run("bogus", config)


class TestInitiatorOnlyTerms:
    """Every launch text uses only words no ordinary document uses: the
    initiators end up empty, are dropped, and their campaigns skipped."""

    @pytest.fixture
    def corpus(self, tmp_path):
        rows = [
            (s, "pledge vow pledge vow" if init else text, init, c)
            for s, text, init, c in synthetic_corpus_rows(n_campaigns=6)
        ]
        return write_corpus_csv(rows, tmp_path / "launch.csv"), [r[0] for r in rows if r[2]]

    def test_impact_skips_the_campaigns(self, tmp_path, corpus):
        path, _ = corpus
        for sub in ("all", "impact"):
            assert cli(sub, "--input", path, "--out", tmp_path / sub) == 0
            report = json.loads((tmp_path / sub / "impact.json").read_text())
            assert report["campaigns"] == []
            assert [s["campaign"] for s in report["skipped_campaigns"]] == list(range(1, 7))

    def test_drilldown_leaves_the_initiator_out(self, tmp_path, corpus):
        path, launches = corpus
        code = cli("drilldown", "--input", path, "--out", tmp_path / "d", "--campaign", 2)
        assert code == 0
        payload = json.loads((tmp_path / "d" / "drilldown.json").read_text())
        assert payload["initiating_seq_nos"] == []
        assert launches[1] not in {t["seq_no"] for t in payload["top_tweets"]}

    def test_ingest_drops_the_initiators(self, tmp_path, corpus):
        path, launches = corpus
        assert cli("ingest", "--input", path, "--out", tmp_path / "i") == 0
        roles = json.loads((tmp_path / "i" / "matrix_roles.json").read_text())
        assert roles["dropped_docs"] == launches
        assert roles["dropped_terms"] == ["pledge", "vow"]
        assert all(r["role"] == "principal" for r in roles["rows"])


_WORDS = ["amber", "birch", "cedar", "delta", "ember", "fjord"]


@st.composite
def _cli_runs(draw):
    """A tiny corpus (one campaign id possibly out of range) and the flags
    of one CLI run over it."""
    rows = []
    for seq in range(1, draw(st.integers(0, 40)) + 1):
        init = draw(st.booleans())
        words = _WORDS + ["pledge"] if init else _WORDS  # a word only initiators use
        text = " ".join(draw(st.lists(st.sampled_from(words), max_size=6)))
        campaign = draw(st.sampled_from([0, 1, 2]) if init else st.sampled_from(["", 0, 1, 2]))
        rows.append([seq, text, int(init), campaign])
    odd = draw(st.sampled_from([None, None, None, -1, 2**63]))
    if rows and odd is not None:
        rows[draw(st.integers(0, len(rows) - 1))][3] = odd
    sub = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    thresholds = st.sampled_from([0, 1, 1, 2, 2, 3, 4])
    flags = [
        "--min-freq", draw(thresholds), "--min-docs", draw(thresholds),
        "--dims", draw(st.sampled_from(["full", "plane"])), "--permutations", 20,
    ]
    if sub == "drilldown":
        flags += ["--campaign", draw(st.integers(0, 3))]
    return rows, sub, flags


class TestCliProperty:
    @settings(deadline=None)
    @given(_cli_runs())
    def test_documented_exit_and_one_error_line(self, run_args):
        rows, sub, flags = run_args
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = write_corpus_csv(rows, tmp / "c.csv")
            outputs = []
            for rerun in ("a", "b"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli(sub, "--input", path, "--out", tmp / rerun, *flags)
                assert code in (0, 2, 3, 4)
                assert "Traceback" not in err.getvalue()
                if code:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and set(json.loads(lines[0])) >= {"error", "message"}
                    return
                outputs.append(artifact_bytes(tmp / rerun))
            assert outputs[0] == outputs[1]


class _Raw:
    """A value written into the corpus file as this exact text."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"_Raw({self.text[:20]!r}...{len(self.text)})"


_FIELDS = ("seq_no", "text", "is_initiating", "campaign")
_ODD_VALUES = st.sampled_from(
    [["a"], {"a": 1}, 1.5, True, False, None, 10**30, float("nan"), -1]
) | st.integers(1, 100_000).map(lambda d: _Raw("[" * d + "]" * d))
_FLAG_EDGES = {
    "--min-freq": [0, 1, 2, 2**63],
    "--min-docs": [0, 1, 2, 2**63],
    "--alpha": [0, 1e-300, 0.5, 1, "nan", "inf"],
    "--permutations": [0, 1, MAX_PERMUTATIONS + 1, 10**30],
    "--seed": [-1, 0, 2**63, 10**30],
    "--top-tweets": [0, 1, 10**30],
    "--top-terms": [0, 1, 10**30],
    "--campaign": [-1, 0, 2**63],
    "--dims": ["full", "plane", "", "FULL"],
}
# text inserted at a drawn place in the file
_INSERTS = {"bom": "\ufeff", "nul": "\0", "cr": "\r", "quote": '"', "long": "a" * 140_000}
_BYTE_MUTATIONS = (*_INSERTS, "crlf", "byte")
_MUTATIONS = (
    "drop", "repeat", "reorder", "rename", "value", "order", *_BYTE_MUTATIONS,
    "flag", "path", "stopwords",
)


def _mutated_bytes(draw, text: str, kinds) -> bytes:
    """``text`` in UTF-8 after each mutation in ``kinds`` that acts on bytes."""
    for kind in kinds:
        if kind in _INSERTS:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + _INSERTS[kind] + text[at:]
        elif kind == "crlf":
            text = text.replace("\n", "\r\n")
    data = text.encode()
    if "byte" in kinds:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _json_record(pairs) -> str:
    return "{" + ", ".join(
        f"{json.dumps(k)}: {v if isinstance(v, _Raw) else json.dumps(v)}" for k, v in pairs
    ) + "}"


@st.composite
def _near_valid_inputs(draw):
    """A valid corpus and run after one to three drawn mutations of its
    records, its bytes, its flags or its stopword file: ``(subcommand, file
    suffix, bytes, flags, output directory name, stopword file bytes or
    None)``.  A stopword file holds zero to four words, after zero to three
    mutations of its bytes.  Nine runs in ten are ``ingest``, which forks
    no worker; ``all`` keeps 20 permutations."""
    sub = draw(st.sampled_from(["ingest"] * 9 + ["all"]))
    suffix = draw(st.sampled_from([".csv", ".jsonl"]))
    records = [
        [["seq_no", seq],
         ["text", " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6)))],
         ["is_initiating", int(seq % 4 == 1)],
         ["campaign", 1 + seq // 4]]
        for seq in range(1, draw(st.integers(2, 10)) + 1)
    ]
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3))
    flags, out, stopwords = [], "out", None
    for kind in kinds:
        rec = draw(st.sampled_from(records))  # three drops leave one of four fields
        k = draw(st.integers(0, len(rec) - 1))
        if kind == "drop":
            del rec[k]
        elif kind == "repeat":
            rec.insert(k, list(rec[k]))
        elif kind == "reorder":
            rec[:] = draw(st.permutations(rec))
        elif kind == "rename":
            rec[k][0] = draw(st.sampled_from(["Seq_no", "txt", "", "text ", "campaign_id"]))
        elif kind == "value":
            field, value = draw(st.sampled_from(_FIELDS)), draw(_ODD_VALUES)
            for pair in rec:
                if pair[0] == field:
                    pair[1] = value
        elif kind == "order":
            a, b = draw(st.permutations(range(len(records))))[:2]
            records[a], records[b] = records[b], records[a]
        elif kind == "flag":
            name = draw(st.sampled_from(sorted(_FLAG_EDGES)))
            if not (sub == "all" and name == "--permutations"):
                flags += [name, str(draw(st.sampled_from(_FLAG_EDGES[name])))]
        elif kind == "path":
            out = "x" * 300  # over the file system's name limit
        elif kind == "stopwords":
            words = draw(st.lists(st.sampled_from(_WORDS), max_size=4))
            stop_kinds = draw(st.lists(st.sampled_from(_BYTE_MUTATIONS), max_size=3))
            stopwords = _mutated_bytes(draw, "".join(w + "\n" for w in words), stop_kinds)
    if suffix == ".csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([k for k, _ in records[0]])
        writer.writerows([[str(v) for _, v in rec] for rec in records])
        text = buf.getvalue()
    else:
        text = "".join(_json_record(rec) + "\n" for rec in records)
    return sub, suffix, _mutated_bytes(draw, text, kinds), tuple(flags), out, stopwords


_CSV_HEAD = b"seq_no,text,is_initiating,campaign\n1,amber birch,0,1\n"
_JSON_HEAD = b'{"seq_no": 1, "text": "amber birch"}\n'


class TestNearValidInputs:
    """The exit-code contract on inputs one to three mutations away from a
    valid run: a documented exit code, on failure one JSON line with the
    error last on stderr, on success a manifest listing every artifact."""

    @settings(deadline=None, max_examples=200)
    @given(_near_valid_inputs())
    # holes found and closed earlier: each once ended in a traceback or exit 5
    @example(("ingest", ".csv", _CSV_HEAD + b"2,c\0d,0,1\n", (), "out", None))
    @example(("ingest", ".csv", _CSV_HEAD + b"2," + b"a" * 200_000 + b",0,1\n", (), "out", None))
    @example(("ingest", ".jsonl", _JSON_HEAD + b'{"seq_no": ' + b"9" * 4301 + b"}\n", (), "out",
              None))
    @example(("ingest", ".csv", _CSV_HEAD, (), "x" * 300, None))
    @example(("all", ".csv", _CSV_HEAD, ("--permutations", str(10**30)), "out", None))
    @example(("ingest", ".jsonl",
              _JSON_HEAD + b'{"seq_no": 2, "text": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
              (), "out", None))
    # stopword files: empty, and one of every defect
    @example(("ingest", ".csv", _CSV_HEAD, (), "out", b""))
    @example(("ingest", ".csv", _CSV_HEAD, (), "out",
              b"\xef\xbb\xbfamber\r\nbi\0rch\r" + b"a" * 140_000 + b"\xff\n"))
    def test_documented_exit_and_complete_manifest(self, run_args):
        sub, suffix, data, flags, out_name, stopwords = run_args
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / f"c{suffix}"
            corpus.write_bytes(data)
            if stopwords is not None:
                (Path(tmp) / "stop.txt").write_bytes(stopwords)
                flags += ("--stopwords", Path(tmp) / "stop.txt")
            out = Path(tmp) / out_name
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli(sub, "--input", corpus, "--out", out, "--min-freq", 1,
                           "--min-docs", 1, "--permutations", 20, *flags)
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            if code:
                assert "error" in json.loads(err.getvalue().splitlines()[-1])
                return
            manifest = json.loads((out / "manifest.json").read_text())
            listed = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
            assert set(listed) == {p.name for p in out.iterdir()} - {"manifest.json"}
            assert set(listed) == (ALL_ARTIFACTS if sub == "all" else INGEST_ARTIFACTS)
            for name, digest in listed.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestForkPolicy:
    """One rule for both worker pools: no fork in a daemon process or
    beside a live thread, and no worker outlives a killed CLI."""

    FLAGS = ("--input", SYNTHETIC3, "--permutations", 200)

    @staticmethod
    def _cores(monkeypatch, n):
        """The run sees n usable cores, whatever the machine has."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @pytest.mark.parametrize("sub", ["ca", "all"])
    def test_daemon_process_runs_inline(self, tmp_path, monkeypatch, sub):
        import multiprocessing

        self._cores(monkeypatch, 1)
        assert cli(sub, "--out", tmp_path / "inline", *self.FLAGS) == 0
        self._cores(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=lambda: sys.exit(cli(sub, "--out", tmp_path / "daemon", *self.FLAGS)),
            daemon=True,
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert artifact_bytes(tmp_path / "daemon") == artifact_bytes(tmp_path / "inline")

    @pytest.mark.parametrize("sub", ["ca", "all"])
    def test_no_fork_beside_a_live_thread(self, tmp_path, monkeypatch, sub):
        import threading

        self._cores(monkeypatch, 1)
        assert cli(sub, "--out", tmp_path / "inline", *self.FLAGS) == 0
        self._cores(monkeypatch, 2)

        def no_fork():
            raise AssertionError("forked beside a live thread")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            code = cli(sub, "--out", tmp_path / "threaded", *self.FLAGS)
        finally:
            release.set()
            other.join()
        assert code == 0
        assert artifact_bytes(tmp_path / "threaded") == artifact_bytes(tmp_path / "inline")

    def test_each_guessed_key_is_computed_once_by_a_worker(self, monkeypatch):
        # keys asked for in the order guessed: the caller computes none of
        # them itself, none is sent twice and no worker holds over _DEPTH
        self._cores(monkeypatch, 2)
        sent, send = [], _workers._Pool._send

        def counted(pool, conn, key):
            send(pool, conn, key)
            sent.append(key)
            assert len(pool.sent[conn]) <= _workers._DEPTH

        monkeypatch.setattr(_workers._Pool, "_send", counted)
        n, results = 40, []
        with _workers.solver(lambda key: (os.getpid(), key)) as solve:
            for i in range(n):
                time.sleep(0.003)  # the workers run ahead of the caller
                results.append(solve(i, lambda: range(i, n)))
        assert [key for _, key in results] == list(range(n))
        assert os.getpid() not in {pid for pid, _ in results}
        assert sorted(sent) == list(range(n))

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        # key 3 fails in a worker: the caller raises what a pool without
        # workers raises, and leaving the block still stops both workers
        sent, send = [], _workers._Pool._send

        def counted(pool, conn, key):
            send(pool, conn, key)
            sent.append(key)

        monkeypatch.setattr(_workers._Pool, "_send", counted)

        def fn(key):
            if key == 3:
                raise ValueError(f"bad key {key}")
            return key

        def failure(cores):
            self._cores(monkeypatch, cores)
            with pytest.raises(ValueError) as caught:
                with _workers.solver(fn) as solve:
                    pids = [proc.pid for proc in solve.procs]
                    for i in range(5):
                        assert solve(i, lambda: range(i, 5)) == i
            return caught.value, pids

        inline, no_pids = failure(1)
        assert no_pids == [] and sent == []
        pooled, pids = failure(2)
        assert len(pids) == 2 and 3 in sent  # computed by a worker
        assert type(pooled) is type(inline) is ValueError
        assert str(pooled) == str(inline) == "bad key 3"
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_leaving_the_block_stops_a_busy_worker(self, monkeypatch):
        # key 1 would keep a worker busy for a minute; leaving the block
        # must not wait for it
        self._cores(monkeypatch, 2)

        def slow_one(key):
            if key == 1:
                time.sleep(60)
            return key

        with _workers.solver(slow_one) as solve:
            assert solve(0, lambda: [0, 1]) == 0
            start = time.perf_counter()
        assert time.perf_counter() - start < 10

    def test_results_below_the_asked_key_are_dropped(self, monkeypatch):
        # keys 1 and 2 finish in the workers while nobody asks for them;
        # asking for key 5 collects their results and keeps none of them
        self._cores(monkeypatch, 2)
        with _workers.solver(lambda key: key) as solve:
            assert solve(0, lambda: [0, 1, 2]) == 0
            time.sleep(0.2)
            assert solve(5, lambda: []) == 5
            assert solve.done == {} and not any(solve.sent.values())

    def test_caller_waits_for_its_own_key_only_and_without_spinning(self, monkeypatch):
        # key 1 is slow: asking for key 2 must not wait for it, and waiting
        # for key 1 must block in the kernel, not poll
        self._cores(monkeypatch, 2)

        def slow_one(key):
            if key == 1:
                time.sleep(1.0)
            return key

        with _workers.solver(slow_one) as solve:
            start = time.perf_counter()
            assert solve(0, lambda: [0, 1]) == 0  # key 1 goes to the other worker
            assert solve(2, lambda: [2]) == 2
            assert time.perf_counter() - start < 0.5
            start, cpu = time.perf_counter(), time.process_time()
            assert solve(1, lambda: [1]) == 1
            assert time.process_time() - cpu < 0.25 * (time.perf_counter() - start)

    def test_ctrl_c_leaves_idle_workers_serving(self, monkeypatch):
        # a Ctrl-C sends SIGINT to the whole process group; it never
        # interrupts a worker, and the caller decides whether the run ends
        self._cores(monkeypatch, 2)
        with _workers.solver(lambda key: (os.getpid(), key)) as solve:
            assert solve(0, lambda: [0, 1])[1] == 0
            time.sleep(0.2)  # both workers wait for their next key
            interrupted = solve.procs[0].pid
            os.kill(interrupted, signal.SIGINT)
            time.sleep(0.2)
            assert all(proc.is_alive() for proc in solve.procs)
            results = []
            for i in range(2, 20):
                time.sleep(0.003)  # the workers run ahead of the caller
                results.append(solve(i, lambda: range(i, 20)))
        assert [key for _, key in results] == list(range(2, 20))
        assert interrupted in {pid for pid, _ in results}

    def test_ctrl_c_as_a_worker_starts_leaves_it_serving(self, monkeypatch):
        # each worker sends itself SIGINT as it starts, before it serves a
        # key: the signal stays blocked and the worker serves on
        self._cores(monkeypatch, 2)
        serve = _workers._serve

        def interrupted(*args):
            os.kill(os.getpid(), signal.SIGINT)
            serve(*args)

        monkeypatch.setattr(_workers, "_serve", interrupted)
        with _workers.solver(lambda key: (os.getpid(), key)) as solve:
            results = []
            for i in range(10):
                time.sleep(0.003)  # the workers run ahead of the caller
                results.append(solve(i, lambda: range(i, 10)))
            assert all(proc.is_alive() for proc in solve.procs)
        assert [key for _, key in results] == list(range(10))
        assert os.getpid() not in {pid for pid, _ in results}

    def test_formatting_workers_exit_when_the_cli_dies(self, tmp_path):
        # the worker processes inherit the write end of a pipe; it reads end
        # of file once the killed CLI process and every worker have exited
        script = textwrap.dedent("""
            import os, sys, time
            from chronosem import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            cli._STRIPE_ROWS = 1
            dump = cli._dump_leaves

            class Stalled:
                def __init__(self, fh):
                    self.fh, self.writes = fh, 0

                def write(self, text):
                    self.writes += 1
                    if self.writes == 20:
                        print("running", flush=True)
                        time.sleep(120)
                    return self.fh.write(text)

            cli._dump_leaves = lambda fh, *a: dump(Stalled(fh), *a)
            cli.main(["ca", "--input", sys.argv[1], "--out", sys.argv[2]])
        """)
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        read_end, write_end = os.pipe()
        run_cli = subprocess.Popen(
            [sys.executable, "-c", script, str(SYNTHETIC3), str(tmp_path / "x")],
            stdout=subprocess.PIPE, pass_fds=(write_end,),
            env={**os.environ, "PYTHONPATH": src},
        )
        os.close(write_end)
        try:
            assert run_cli.stdout.readline() == b"running\n"
            run_cli.send_signal(signal.SIGKILL)
            run_cli.wait(10)
            assert select.select([read_end], [], [], 10)[0], "a formatting worker outlived the CLI"
            assert os.read(read_end, 1) == b""
        finally:
            run_cli.kill()
            run_cli.stdout.close()
            os.close(read_end)


# run in a fresh interpreter: every worker pool it starts has 2 workers, and
# `pipes` collects the descriptor numbers of their pipes
_RECORD_PIPES = """
import sys
from chronosem import _workers, cli
_workers._default_workers = lambda: 2
pipes, init = [], _workers._Pool.__init__

def recorded(pool, *args):
    init(pool, *args)
    pipes.extend(conn.fileno() for conn in pool.sent)

_workers._Pool.__init__ = recorded
"""


class TestManyOpenDescriptors:
    """The worker pools work whatever the number of descriptors their caller
    holds open, past the 1024 that ``select`` takes."""

    def test_pools_and_cli_past_descriptor_1024(self, tmp_path):
        import resource

        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("needs a soft RLIMIT_NOFILE of at least 1200")
        script = _RECORD_PIPES + f"_RECORD_PIPES = {_RECORD_PIPES!r}\n" + textwrap.dedent("""
            import io, os, subprocess
            import numpy as np
            from chronosem import segmentation

            fds = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]

            def run(workers, fn):
                _workers._default_workers = lambda: workers
                return fn()

            rng = np.random.default_rng(8)
            pts = rng.standard_normal((120, 6)) + 2.0 * (np.arange(120) // 15)[:, None]
            config = segmentation.PermTestConfig(n_permutations=300, rng_seed=9)
            inline = run(1, lambda: segmentation.segment(pts, config))
            pooled = run(2, lambda: segmentation.segment(pts, config))
            assert pooled.tests == inline.tests and pooled.segments == inline.segments

            cli._STRIPE_ROWS = 4
            tree = {"a": rng.standard_normal((40, 3)), "b": [1.5, 2]}

            def dump():
                buf = io.StringIO()
                cli._dump_leaves(buf, tree, {})
                return buf.getvalue()

            assert run(2, dump) == run(1, dump)
            assert len(pipes) == 4 and min(pipes) >= 1024, pipes

            # the CLI inherits the 1100 descriptors
            main = "assert cli.main(sys.argv[1:]) == 0; assert pipes and min(pipes) >= 1024"
            for sub in ("segment", "ca"):
                argv = [sub, "--input", sys.argv[1], "--out", f"{sys.argv[2]}/{sub}"]
                command = [sys.executable, "-c", _RECORD_PIPES + main, *argv]
                subprocess.run(command, pass_fds=fds, check=True)
        """)
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, str(SYNTHETIC3), str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        for sub in ("segment", "ca"):
            assert cli(sub, "--input", SYNTHETIC3, "--out", tmp_path / f"plain_{sub}") == 0
            assert artifact_bytes(tmp_path / sub) == artifact_bytes(tmp_path / f"plain_{sub}")


class TestStopwordOverride:
    def test_custom_stopword_file_changes_vocabulary(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("garden\nmusic\nspace\n")
        out_default = tmp_path / "d"
        out_custom = tmp_path / "c"
        assert cli("ingest", "--input", SYNTHETIC3, "--out", out_default) == 0
        assert cli("ingest", "--input", SYNTHETIC3, "--out", out_custom,
                   "--stopwords", stop) == 0
        roles_d = json.loads((out_default / "matrix_roles.json").read_text())
        roles_c = json.loads((out_custom / "matrix_roles.json").read_text())
        terms_d = {c["name"] for c in roles_d["cols"] if c["role"] == "term"}
        terms_c = {c["name"] for c in roles_c["cols"] if c["role"] == "term"}
        assert "garden" in terms_d and "garden" not in terms_c
