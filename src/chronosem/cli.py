"""Command-line pipeline: corpus file in, tabular/plot artifacts out.

Each subcommand reads the corpus named in the config, runs the chain up to
its stage in memory, and writes that stage's artifacts plus a manifest with
the config, seed, library versions and a content hash per file.  All
randomness flows from the single --seed flag and BLAS runs on one thread,
so reruns are byte-identical at any thread count.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error,
5 unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import operator
import os
import platform
import sys
from dataclasses import dataclass
from contextlib import ExitStack, suppress
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__, ca, corpus, impact, segmentation
from ._workers import solver
from .cluster import cluster as build_dendrogram
from .cluster import dendrogram_csv_rows, dendrogram_json_dict, to_newick
from .errors import ChronosemError, ConfigError

SUBCOMMANDS = {
    "ingest": "corpus -> thresholded matrix + vocabulary report",
    "ca": "corpus -> factor model JSON/CSV",
    "cluster": "corpus -> constrained dendrogram exports",
    "segment": "corpus -> significant segments + segment factor map",
    "impact": "corpus -> per-campaign impact report and curve data",
    "drilldown": "corpus -> single-campaign factor space and top lists",
    "all": "run the full chain",
}
# the stages `all` runs, in order
CHAIN = ("ingest", "ca", "cluster", "segment", "impact")
# exit code of a failure that is not a ChronosemError (a bug, a dead
# worker process, an I/O error while writing)
UNEXPECTED_ERROR_EXIT = 5
INTERRUPTED_EXIT = 130  # Ctrl-C: 128 + SIGINT, as a shell reports it
# 200 times the protocol's 5000; a gate's label array grows with it
MAX_PERMUTATIONS = 1_000_000


@dataclass
class PipelineConfig:
    input: str
    out: str
    stopwords: str | None = None
    min_global_freq: int = 5
    min_doc_count: int = 5
    alpha: float = segmentation.PermTestConfig.alpha
    n_permutations: int = segmentation.PermTestConfig.n_permutations
    rng_seed: int = segmentation.PermTestConfig.rng_seed
    campaign: int | None = None
    top_tweets: int = 10
    top_terms: int = 15
    dims: str = "full"


def _validate(config: PipelineConfig, subcommand: str):
    # os.path.isfile, unlike Path.is_file, is False for a name too long to exist
    if not os.path.isfile(config.input):
        raise ConfigError("input is not an existing file", config.input)
    if not config.out:  # Path("") is the working directory
        raise ConfigError("output directory name is empty", config.out)
    if config.stopwords is not None and not os.path.isfile(config.stopwords):
        raise ConfigError("stopword list is not an existing file", config.stopwords)
    if config.min_global_freq < 1 or config.min_doc_count < 1:
        raise ConfigError("thresholds --min-freq and --min-docs must be >= 1")
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError(f"--alpha {config.alpha} outside (0, 1)")
    if not 1 <= config.n_permutations <= MAX_PERMUTATIONS:
        raise ConfigError(f"--permutations must be between 1 and {MAX_PERMUTATIONS}")
    if config.rng_seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if config.top_tweets < 1 or config.top_terms < 1:
        raise ConfigError("--top-tweets and --top-terms must be >= 1")
    if config.dims not in ("full", "plane"):
        raise ConfigError(f"--dims must be 'full' or 'plane', got {config.dims!r}")
    if subcommand == "drilldown" and config.campaign is None:
        raise ConfigError("drilldown requires --campaign")


class _HashingWriter(io.BufferedWriter):
    """A file's writer that feeds every chunk it writes to its ``digest``."""

    def write(self, b) -> int:
        self.digest.update(b)
        return super().write(b)


_STRIPE_ROWS = 64  # rows per formatting task


def _format_stripe(block: np.ndarray, ids) -> tuple[str, str]:
    """JSON text of a block of float rows, without the outer brackets, and,
    when ``ids`` are given, the same rows as CSV lines after their ids.

    Each float is formatted once, by ``repr``; for finite floats the
    ``repr`` of a list equals its ``json.dumps``.  The ids are ints or
    alphabetic terms and the cells are float reprs, so no CSV cell needs
    quoting.
    """
    rows = list(map(repr, block.tolist()))
    if ids is None:
        return ", ".join(rows), ""
    lines = [f"{i},{row[1:-1]}" if block.shape[1] else str(i) for i, row in zip(ids, rows)]
    return ", ".join(rows), "\n".join(lines).replace(", ", ",") + "\n"


def _pieces(obj, path: tuple = ()):
    """``json.dumps(obj, sort_keys=True)`` as a sequence of strings, with a
    ``(key path, table, first row)`` tuple in place of each stripe of
    ``_STRIPE_ROWS`` rows of a 2-D float table (an ndarray, or a leaf that
    forms the rows sliced from it)."""
    if isinstance(obj, dict):
        yield "{"
        for k, key in enumerate(sorted(obj)):
            yield f"{', ' if k else ''}{json.dumps(key)}: "
            yield from _pieces(obj[key], path + (key,))
        yield "}"
    elif getattr(obj, "ndim", None) == 2 and obj.dtype.kind == "f":
        yield "["
        for a in range(0, len(obj), _STRIPE_ROWS):
            yield path, obj, a
        yield "]"
    else:
        yield json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj)


def _dump_leaves(fh, obj, csvs: dict) -> None:
    """Write ``json.dumps(obj, sort_keys=True)`` to ``fh`` one leaf at a time.

    Dicts are written key by key in sorted order.  Every 2-D float table is
    sliced into stripes of ``_STRIPE_ROWS`` rows, formed and formatted by
    :func:`_format_stripe` ahead of the writer on the run's worker pool
    (see :func:`chronosem._workers.solver`; ``repr`` holds the interpreter
    lock, so threads would not run it in parallel), and each stripe is
    written as its result arrives, in order.  The rows of an array whose
    key path is in ``csvs`` also go, as CSV lines, to the open file of
    ``csvs[path] = (file, ids)``.  Any other leaf goes through the C
    encoder (an ndarray after ``.tolist()``).  Floats must be finite, as
    ``repr`` and JSON differ on NaN and inf.
    """
    pieces = list(_pieces(obj))
    stripes = [p for p in pieces if isinstance(p, tuple)]
    n = len(stripes)

    def format_stripe(i: int) -> tuple[str, str]:
        path, table, a = stripes[i]
        ids = csvs[path][1][a : a + _STRIPE_ROWS] if path in csvs else None
        return _format_stripe(table[a : a + _STRIPE_ROWS], ids)

    # the workers fork after the stripes exist, so only indices cross the pipes
    with solver(format_stripe) as solve:
        results = (solve(i, lambda: range(i, n)) for i in range(n))
        for piece in pieces:
            if isinstance(piece, str):
                fh.write(piece)
                continue
            path, _, a = piece
            text, lines = next(results)
            fh.write(f"{', ' if a else ''}{text}")
            if path in csvs:
                csvs[path][0].write(lines)


class _Pipeline:
    """Runs stages lazily so each subcommand computes only what it needs."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # a file in the way or a name too long to create is the caller's
            # mistake; any other refusal (permissions, say) is an I/O error
            if exc.errno not in (errno.EEXIST, errno.ENOTDIR, errno.ENAMETOOLONG):
                raise
            raise ConfigError("output is not a directory", config.out) from exc
        self.artifacts: dict = {}  # path -> sha256 of the bytes written, in write order

    # -- artifacts -------------------------------------------------------
    def _open(self, name: str):
        """Open ``name`` in the output directory for writing, as UTF-8 with
        ``\\n`` line ends on every platform, and record it as an artifact.
        The first one removes an earlier run's manifest, now stale."""
        if not self.artifacts:
            (self.out / "manifest.json").unlink(missing_ok=True)
        buf = _HashingWriter(io.FileIO(self.out / name, "w"))
        buf.digest = self.artifacts[self.out / name] = hashlib.sha256()
        return io.TextIOWrapper(buf, encoding="utf-8", newline="")

    def _json(self, name: str, obj) -> None:
        with self._open(name) as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _csv(self, name: str, rows) -> None:
        """Write ``rows`` as CSV lines; a float cell must be a Python float,
        which ``csv`` renders as its ``repr``."""
        with self._open(name) as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    # -- stage data ------------------------------------------------------
    @cached_property
    def docs(self):
        return corpus.merge_adjacent_initiating(corpus.load_corpus(self.config.input))

    @cached_property
    def vocab(self):
        stop = (
            corpus.load_stopwords(self.config.stopwords)
            if self.config.stopwords
            else corpus.DEFAULT_STOPWORDS
        )
        return corpus.build_vocabulary(self.docs, stop)

    @cached_property
    def tdm(self):
        return corpus.threshold_matrix(
            self.docs, self.vocab, self.config.min_global_freq, self.config.min_doc_count
        )

    @cached_property
    def model(self):
        return ca.fit_ca(self.tdm.principal_counts())

    @cached_property
    def seq(self) -> list[int]:
        """Seq_nos of the principal rows, the ids of the clustered points."""
        return [int(s) for s in self.tdm.principal_seq_nos()]

    @cached_property
    def coords(self):
        """Clustering/segmentation coordinate view."""
        full = self.model.row_coords
        return full[:, :2] if self.config.dims == "plane" else full

    @cached_property
    def dist(self):
        """Condensed distances of the full coordinates, shared by cluster
        under --dims full and impact.  ``pdist`` is looked up on ``impact``
        at call time, so a wrapper set on that module sees this build too."""
        return impact.pdist(self.model.row_coords)

    # -- stages ----------------------------------------------------------
    def stage_ingest(self):
        tdm, vocab = self.tdm, self.vocab
        rows = itertools.chain([("row", "col", "value")], corpus.matrix_to_coo_rows(tdm))
        self._csv("matrix.csv", rows)
        self._json("matrix_roles.json", corpus.matrix_roles_dict(tdm))
        retained = set(tdm.terms)
        rows = [(t, f, n, int(t in retained)) for t, f, n in
                zip(vocab.terms, vocab.global_freq.tolist(), vocab.doc_count.tolist())]
        self._csv("vocab.csv", [("term", "global_freq", "doc_count", "retained"), *rows])

    def stage_ca(self):
        model = self.model
        export = ca.model_export_dict(model, row_ids=self.seq, col_ids=self.tdm.terms)
        header = ",".join(["id"] + [f"f{s + 1}" for s in range(model.n_factors)]) + "\n"
        with ExitStack() as stack:
            fh = stack.enter_context(self._open("model.json"))
            csvs = {}
            for c in ("rows", "cols"):
                out = stack.enter_context(self._open(f"model_{c}.csv"))
                out.write(header)
                csvs[(c, "coords")] = (out, export[c]["ids"])
            _dump_leaves(fh, export, csvs)
            fh.write("\n")

    def stage_cluster(self):
        dist = self.dist if self.config.dims == "full" else None
        dendro = build_dendrogram(self.coords, ids=self.seq, dist=dist)
        self._json("dendrogram.json", dendrogram_json_dict(dendro))
        with self._open("dendrogram.newick") as fh:
            fh.write(to_newick(dendro) + "\n")
        self._csv("dendrogram.csv", dendrogram_csv_rows(dendro))

    def stage_segment(self):
        config = segmentation.PermTestConfig(
            alpha=self.config.alpha,
            n_permutations=self.config.n_permutations,
            rng_seed=self.config.rng_seed,
        )
        result = segmentation.segment(self.coords, config, ids=self.seq)
        fmap = segmentation.segment_centroids_as_supplementary(
            result, self.tdm.principal_counts()
        )
        segments = []
        rows = [("segment_id", "start_seq", "end_seq", "n_docs", "singleton", "role", "f1", "f2")]
        for k, seg in enumerate(result.segments):
            single = len(seg) == 1
            segments.append({"id": k + 1, "start_seq": seg[0], "end_seq": seg[-1],
                             "members": seg, "singleton": single})
            f1, f2 = (fmap.coords[k].tolist() + [0.0, 0.0])[:2]
            role = "supplementary" if fmap.supplementary[k] else "principal"
            rows.append((k + 1, seg[0], seg[-1], len(seg), int(single), role, f1, f2))
        payload = {
            "config": {**dataclasses.asdict(config), "dims": self.config.dims},
            "n_segments": result.n_segments,
            "segments": segments,
            "blocked": [
                {
                    "boundary_after_seq": b.boundary_after,
                    "h": b.h,
                    "p": b.p,
                }
                for b in result.blocked
            ],
        }
        self._json("segments.json", payload)
        self._csv("segments.csv", rows)

    def stage_impact(self):
        # impact is the chain's last user of the cached distances, so
        # release them here; when cluster did not build them, impact does
        report = impact.build_impact_report(self.tdm, self.model, self.__dict__.pop("dist", None))
        self._json("impact.json", report.to_dict())
        cols = ("campaign", "distance_plane", "distance_full", "z_score",
                "two_sided_tail_percent", "percent_pairs_below")
        rows = [cols, *map(operator.attrgetter(*cols), report.campaigns)]
        self._csv("impact.csv", rows)
        self._csv("impact_curve.csv", [r[:3] for r in rows])

    def stage_drilldown(self):
        result = impact.drilldown(
            self.tdm,
            self.config.campaign,
            top_tweets=self.config.top_tweets,
            top_terms=self.config.top_terms,
        )
        payload = {
            "campaign": result.campaign,
            "n_docs": int(len(result.seq_nos)),
            "n_terms": len(result.terms),
            "initiating_seq_nos": result.initiating_seq_nos,
            "percent_inertia_plane": result.model.percent_inertia[:2].tolist(),
            "top_tweets": result.top_tweets,
            "top_terms": result.top_terms,
        }
        self._json("drilldown.json", payload)
        for name, top, key, score in (
            ("drilldown_tweets.csv", result.top_tweets, "seq_no", "plane_contribution_percent"),
            ("drilldown_terms.csv", result.top_terms, "term", "plane_magnitude"),
        ):
            rows = [(t[key], t[score], *(t["coords"] + [0.0, 0.0])[:2]) for t in top]
            self._csv(name, [(key, score, "f1", "f2"), *rows])

    def write_manifest(self, subcommand: str) -> None:
        """List every artifact so far and its digest in ``manifest.json``, the last one."""
        entries = [{"path": p.name, "sha256": digest.hexdigest()}
                   for p, digest in sorted(self.artifacts.items())]
        manifest = {
            "subcommand": subcommand,
            "config": dataclasses.asdict(self.config),
            "seed": self.config.rng_seed,
            "versions": {
                "chronosem": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "artifacts": entries,
        }
        self._json("manifest.json", manifest)


def run(subcommand: str, config: PipelineConfig) -> list[Path]:
    """Execute one subcommand; returns the written artifact paths."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    _validate(config, subcommand)
    pipe = _Pipeline(config)
    for stage in CHAIN if subcommand == "all" else (subcommand,):
        getattr(pipe, f"stage_{stage}")()
    pipe.write_manifest(subcommand)
    return list(pipe.artifacts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronosem",
        description=(
            "Map a chronological text corpus into a latent factor space, "
            "segment it into homogeneous sub-narratives and score the impact "
            "of initiating documents."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    # PipelineConfig owns every default; set first, the arguments take them
    common.set_defaults(**{f.name: f.default for f in dataclasses.fields(PipelineConfig)
                           if f.default is not dataclasses.MISSING})
    common.add_argument("--input", required=True, help="corpus CSV or JSON-lines file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--stopwords", help="stopword file, one term per line")
    common.add_argument("--min-freq", type=int, dest="min_global_freq",
                        help="minimum global term frequency (default %(default)s)")
    common.add_argument("--min-docs", type=int, dest="min_doc_count",
                        help="minimum number of documents per term (default %(default)s)")
    common.add_argument("--alpha", type=float,
                        help="significance level for segment gating (default %(default)s)")
    common.add_argument("--permutations", type=int, dest="n_permutations",
                        help="Monte Carlo permutations per gate (default %(default)s)")
    common.add_argument("--seed", type=int, dest="rng_seed",
                        help="seed for all randomness (default %(default)s)")
    common.add_argument("--campaign", type=int, help="campaign id (required for drilldown)")
    common.add_argument("--top-tweets", type=int, dest="top_tweets",
                        help="documents to label in drilldown (default %(default)s)")
    common.add_argument("--top-terms", type=int, dest="top_terms",
                        help="terms to label in drilldown (default %(default)s)")
    # checked by _validate alone, so a bad value ends in the JSON line
    common.add_argument("--dims", metavar="{full,plane}",
                        help="coordinate space for clustering/segmentation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    subcommand = args.pop("subcommand")
    config = PipelineConfig(**args)
    paths = None
    try:
        paths = run(subcommand, config)
        # a full disk or a closed pipe fails here, not in the flush at exit
        print(*paths, sep="\n", flush=True)
    except (Exception, KeyboardInterrupt) as exc:  # one JSON line, never a traceback
        if paths is not None:  # closing stdout drops the bytes the exit would retry
            with suppress(OSError):
                sys.stdout.close()
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError) and exc.path is not None:
            payload["path"] = exc.path
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        if isinstance(exc, KeyboardInterrupt):
            return INTERRUPTED_EXIT
        return exc.exit_code if isinstance(exc, ChronosemError) else UNEXPECTED_ERROR_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
