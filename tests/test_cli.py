import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
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
from hypothesis import given, settings
from hypothesis import strategies as st

from chronosem import cli as cli_module
from chronosem import _workers, impact, segmentation
from chronosem.cli import (
    _HASH_BLOCK,
    SUBCOMMANDS,
    UNEXPECTED_ERROR_EXIT,
    PipelineConfig,
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

    def counted(pool, w):
        collect(pool, w)
        collected.append(w)

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
            ("segment", "full", 0), ("segment", "plane", 0),
        ],
    )
    def test_distances_built_once_per_view(
        self, tmp_path, monkeypatch, subcommand, dims, builds
    ):
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
        pipe = _Pipeline(PipelineConfig(input=str(SYNTHETIC3), out=str(tmp_path)))
        big = tmp_path / "big.bin"
        big.write_bytes(np.random.default_rng(0).bytes(2 * _HASH_BLOCK + 123))
        pipe.artifacts.append(big)
        manifest = json.loads(pipe.write_manifest("ingest").read_text())
        digest = hashlib.sha256(big.read_bytes()).hexdigest()
        assert manifest["artifacts"] == [{"path": "big.bin", "sha256": digest}]


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

    def test_drilldown_artifacts(self, tmp_path):
        out = tmp_path / "dd"
        assert cli("drilldown", "--input", SYNTHETIC3, "--out", out,
                   "--campaign", 2, "--top-tweets", 4, "--top-terms", 6) == 0
        dd = json.loads((out / "drilldown.json").read_text())
        assert dd["campaign"] == 2
        assert len(dd["top_tweets"]) == 4
        assert len(dd["top_terms"]) == 6


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

    def test_drilldown_requires_campaign(self, tmp_path, capsys):
        code = cli("drilldown", "--input", SYNTHETIC3, "--out", tmp_path / "x")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_data_error_exit_3(self, tmp_path, capsys):
        corpus = write_corpus_csv(
            [(1, "one off words", 0, 1), (2, "more rare terms", 0, 1)],
            tmp_path / "tiny.csv",
        )
        code = cli("all", "--input", corpus, "--out", tmp_path / "x")
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "AllDocumentsEmpty"

    def test_bad_alpha_rejected(self, tmp_path, capsys):
        code = cli("segment", "--input", SYNTHETIC3, "--out", tmp_path / "x",
                   "--alpha", "1.5")
        assert code == 2

    def test_numeric_error_exit_4(self, tmp_path, capsys):
        # identical documents give a zero-inertia model: no factor spread
        corpus = write_corpus_csv(
            [(s, "same words every time", int(s == 1), 1) for s in range(1, 9)],
            tmp_path / "flat.csv",
        )
        code = cli("impact", "--input", corpus, "--out", tmp_path / "x")
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DegenerateSpread"

    @pytest.mark.parametrize(
        "name, content, line",
        [
            ("float_campaign.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c d,0,1.0\n", 3),
            ("malformed.jsonl", b'{"seq_no": 1, "text": "a b"}\n\n{"seq_no": 2, "text": \n', 3),
            ("latin1.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,caf\xe9,0,1\n", 3),
            ("short_row.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2\n", 3),
            ("yes_flag.csv", b"seq_no,text,is_initiating,campaign\n1,a b,0,1\n2,c d,yes,1\n", 3),
            ("two_flag.jsonl", b'{"seq_no": 1, "text": "a b", "is_initiating": 2}\n', 1),
            ("no_campaign.csv", b"seq_no,text,is_initiating,campaign\n1,alpha beta,1,\n", 2),
        ],
        ids=[
            "float_campaign", "malformed_jsonl", "non_utf8", "short_row",
            "yes_initiating", "numeric_initiating", "initiating_without_campaign",
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

    def test_unwritable_output_exit_5(self, tmp_path, capfd):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        code = cli("ca", "--input", SYNTHETIC3, "--out", out)
        self._assert_unexpected(capfd, code, "FileExistsError")

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
