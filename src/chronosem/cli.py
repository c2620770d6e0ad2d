"""Command-line pipeline: corpus file in, tabular/plot artifacts out.

Each subcommand reads the corpus named in the config, runs the chain up to
its stage in memory, and writes that stage's artifacts plus a manifest with
the config, seed, library versions and a content hash per file.  All
randomness flows from the single --seed flag, so reruns are byte-identical.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error,
5 unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import platform
import sys
from dataclasses import dataclass
from contextlib import ExitStack, contextmanager
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__, ca, corpus, impact, segmentation
from .cluster import cluster as build_dendrogram
from .cluster import _default_workers
from .cluster import dendrogram_csv_rows, dendrogram_json_dict, distance_matrix, to_newick
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


@dataclass
class PipelineConfig:
    input: str
    out: str
    stopwords: str | None = None
    min_global_freq: int = 5
    min_doc_count: int = 5
    alpha: float = 0.15
    n_permutations: int = 5000
    rng_seed: int = 0
    campaign: int | None = None
    top_tweets: int = 10
    top_terms: int = 15
    dims: str = "full"


def _validate(config: PipelineConfig, subcommand: str):
    if not Path(config.input).is_file():
        raise ConfigError(f"input is not an existing file: {config.input}")
    if config.stopwords is not None and not Path(config.stopwords).is_file():
        raise ConfigError(f"stopword list is not an existing file: {config.stopwords}")
    if config.min_global_freq < 1 or config.min_doc_count < 1:
        raise ConfigError("thresholds --min-freq and --min-docs must be >= 1")
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError(f"--alpha {config.alpha} outside (0, 1)")
    if config.n_permutations < 1:
        raise ConfigError("--permutations must be >= 1")
    if config.rng_seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if config.top_tweets < 1 or config.top_terms < 1:
        raise ConfigError("--top-tweets and --top-terms must be >= 1")
    if config.dims not in ("full", "plane"):
        raise ConfigError(f"--dims must be 'full' or 'plane', got {config.dims!r}")
    if subcommand == "drilldown" and config.campaign is None:
        raise ConfigError("drilldown requires --campaign")


def _write_json(path: Path, obj) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


_HASH_BLOCK = 1 << 20


def _sha256(path: Path) -> str:
    """Hex digest of a file, read one block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


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


@contextmanager
def _stripe_map():
    """The ``map`` that formats stripes: ``pool.map`` on a pool of
    ``_default_workers()`` forked processes, or builtin ``map`` when there
    is one worker or no ``fork``.

    ``repr`` holds the interpreter lock, so threads would not run it in
    parallel.  Forked workers leave through ``os._exit``, so they never
    flush the parent's open files.
    """
    import multiprocessing  # imported here, so the CLI's start-up does not pay for it
    from concurrent.futures.process import ProcessPoolExecutor

    workers = _default_workers()
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield map
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool.map


def _pieces(obj, path: tuple = ()):
    """``json.dumps(obj, sort_keys=True)`` as a sequence of strings, with a
    ``(key path, array)`` pair in place of each 2-D float array."""
    if isinstance(obj, dict):
        yield "{"
        for k, key in enumerate(sorted(obj)):
            yield f"{', ' if k else ''}{json.dumps(key)}: "
            yield from _pieces(obj[key], path + (key,))
        yield "}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        yield path, obj
    else:
        yield json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj)


def _dump_leaves(fh, obj, fmt, csvs=None) -> None:
    """Write ``json.dumps(obj, sort_keys=True)`` to ``fh`` one leaf at a time.

    Dicts are written key by key in sorted order.  Every 2-D float array is
    cut into stripes of ``_STRIPE_ROWS`` rows, all of them are handed to
    ``fmt`` (builtin ``map`` or a pool's, see :func:`_stripe_map`) with
    :func:`_format_stripe`, and each stripe is written as its result
    arrives, in order.  The rows of an array whose key path is in ``csvs``
    also go, as CSV lines, to the open file of ``csvs[path] = (file, ids)``.
    Any other leaf goes through the C encoder (an ndarray after
    ``.tolist()``).  Floats must be finite, as ``repr`` and JSON differ on
    NaN and inf.
    """
    csvs = csvs or {}
    pieces = list(_pieces(obj))
    stripes = [
        (path, a, table[a : a + _STRIPE_ROWS])
        for path, table in (p for p in pieces if isinstance(p, tuple))
        for a in range(0, len(table), _STRIPE_ROWS)
    ]
    blocks = [block for _, _, block in stripes]
    ids = [csvs[path][1][a : a + _STRIPE_ROWS] if path in csvs else None for path, a, _ in stripes]
    results = iter(fmt(_format_stripe, blocks, ids))
    for piece in pieces:
        if isinstance(piece, str):
            fh.write(piece)
            continue
        path, table = piece
        fh.write("[")
        for a in range(0, len(table), _STRIPE_ROWS):
            text, lines = next(results)
            fh.write(f"{', ' if a else ''}{text}")
            if path in csvs:
                csvs[path][0].write(lines)
        fh.write("]")


class _Pipeline:
    """Runs stages lazily so each subcommand computes only what it needs."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[Path] = []

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
        return corpus.build_vocabulary(self.docs, corpus.TokenizerConfig(stopwords=stop))

    @cached_property
    def tdm(self):
        return corpus.threshold_matrix(
            self.docs, self.vocab, self.config.min_global_freq, self.config.min_doc_count
        )

    @cached_property
    def model(self):
        return ca.fit_ca(self.tdm.principal_counts())[1]

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
        """Distance matrix of the ``coords`` view, shared by cluster and segment."""
        return distance_matrix(self.coords)

    # -- stages ----------------------------------------------------------
    def stage_ingest(self):
        tdm, vocab = self.tdm, self.vocab
        rows = [("row", "col", "value")]
        rows += list(corpus.matrix_to_coo_rows(tdm))
        self.artifacts.append(_write_csv(self.out / "matrix.csv", rows))
        self.artifacts.append(
            _write_json(self.out / "matrix_roles.json", corpus.matrix_roles_dict(tdm))
        )
        retained = set(tdm.terms)
        vocab_rows = [("term", "global_freq", "doc_count", "retained")]
        for t in vocab.terms:
            vocab_rows.append(
                (t, vocab.global_freq[t], vocab.doc_count[t], int(t in retained))
            )
        self.artifacts.append(_write_csv(self.out / "vocab.csv", vocab_rows))

    def stage_ca(self):
        model = self.model
        export = ca.model_export_dict(model, row_ids=self.seq, col_ids=self.tdm.terms)
        header = ",".join(["id"] + [f"f{s + 1}" for s in range(model.n_factors)]) + "\n"
        paths = {c: self.out / f"model_{c}.csv" for c in ("rows", "cols")}
        with ExitStack() as stack:
            fmt = stack.enter_context(_stripe_map())
            csvs = {}
            for c, path in paths.items():
                out = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
                out.write(header)
                csvs[(c, "coords")] = (out, export[c]["ids"])
            fh = stack.enter_context(open(self.out / "model.json", "w", encoding="utf-8"))
            _dump_leaves(fh, export, fmt, csvs)
            fh.write("\n")
        self.artifacts += [self.out / "model.json", *paths.values()]

    def stage_cluster(self):
        dendro = build_dendrogram(self.coords, ids=self.seq, dist=self.dist)
        self.artifacts.append(
            _write_json(self.out / "dendrogram.json", dendrogram_json_dict(dendro))
        )
        with open(self.out / "dendrogram.newick", "w", encoding="utf-8") as fh:
            fh.write(to_newick(dendro) + "\n")
        self.artifacts.append(self.out / "dendrogram.newick")
        self.artifacts.append(
            _write_csv(self.out / "dendrogram.csv", dendrogram_csv_rows(dendro))
        )

    def stage_segment(self):
        config = segmentation.PermTestConfig(
            alpha=self.config.alpha,
            n_permutations=self.config.n_permutations,
            rng_seed=self.config.rng_seed,
        )
        result = segmentation.segment(self.coords, config, ids=self.seq, dist=self.dist)
        fmap = segmentation.segment_centroids_as_supplementary(
            result, self.tdm.principal_counts()
        )
        payload = {
            "config": {**dataclasses.asdict(config), "dims": self.config.dims},
            "n_segments": result.n_segments,
            "segments": [
                {
                    "id": k + 1,
                    "start_seq": seg[0],
                    "end_seq": seg[-1],
                    "members": seg,
                    "singleton": len(seg) == 1,
                }
                for k, seg in enumerate(result.segments)
            ],
            "blocked": [
                {
                    "boundary_after_seq": b.boundary_after,
                    "h": b.h,
                    "p": b.p,
                }
                for b in result.blocked
            ],
        }
        self.artifacts.append(_write_json(self.out / "segments.json", payload))
        rows = [
            (
                "segment_id", "start_seq", "end_seq", "n_docs",
                "singleton", "role", "f1", "f2",
            )
        ]
        for k, seg in enumerate(result.segments):
            f1, f2 = (list(fmap.coords[k]) + [0.0, 0.0])[:2]
            rows.append(
                (
                    k + 1, seg[0], seg[-1], len(seg), int(len(seg) == 1),
                    "supplementary" if fmap.supplementary[k] else "principal",
                    _fmt(f1), _fmt(f2),
                )
            )
        self.artifacts.append(_write_csv(self.out / "segments.csv", rows))

    def stage_impact(self):
        # impact is the chain's last user of the cached matrix, so release
        # it here.  Under --dims full it also covers impact; otherwise, and
        # when impact runs alone, impact builds only the condensed distances.
        dist = self.__dict__.pop("dist", None)
        if self.config.dims != "full":
            dist = None
        report = impact.build_impact_report(self.tdm, self.model, dist)
        self.artifacts.append(_write_json(self.out / "impact.json", report.to_dict()))
        rows = [
            (
                "campaign", "distance_plane", "distance_full", "z_score",
                "two_sided_tail_percent", "percent_pairs_below",
            )
        ]
        for c in report.campaigns:
            rows.append(
                (
                    c.campaign, _fmt(c.distance_plane), _fmt(c.distance_full),
                    _fmt(c.z_score), _fmt(c.two_sided_tail_percent),
                    _fmt(c.percent_pairs_below),
                )
            )
        self.artifacts.append(_write_csv(self.out / "impact.csv", rows))
        self.artifacts.append(
            _write_csv(self.out / "impact_curve.csv", [r[:3] for r in rows])
        )

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
        self.artifacts.append(_write_json(self.out / "drilldown.json", payload))
        for name, top, key, score in (
            ("drilldown_tweets.csv", result.top_tweets, "seq_no", "plane_contribution_percent"),
            ("drilldown_terms.csv", result.top_terms, "term", "plane_magnitude"),
        ):
            rows = [(key, score, "f1", "f2")]
            for t in top:
                f1, f2 = (t["coords"] + [0.0, 0.0])[:2]
                rows.append((t[key], _fmt(t[score]), _fmt(f1), _fmt(f2)))
            self.artifacts.append(_write_csv(self.out / name, rows))

    def write_manifest(self, subcommand: str) -> Path:
        entries = []
        for path in sorted(self.artifacts):
            entries.append({"path": path.name, "sha256": _sha256(path)})
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
        return _write_json(self.out / "manifest.json", manifest)


def run(subcommand: str, config: PipelineConfig) -> list[Path]:
    """Execute one subcommand; returns the written artifact paths."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    _validate(config, subcommand)
    pipe = _Pipeline(config)
    for stage in CHAIN if subcommand == "all" else (subcommand,):
        getattr(pipe, f"stage_{stage}")()
    manifest = pipe.write_manifest(subcommand)
    return pipe.artifacts + [manifest]


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
    common.add_argument("--input", required=True, help="corpus CSV or JSON-lines file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--stopwords", default=None, help="stopword file, one term per line")
    common.add_argument("--min-freq", type=int, default=5, dest="min_global_freq",
                        help="minimum global term frequency (default 5)")
    common.add_argument("--min-docs", type=int, default=5, dest="min_doc_count",
                        help="minimum number of documents per term (default 5)")
    common.add_argument("--alpha", type=float, default=0.15,
                        help="significance level for segment gating (default 0.15)")
    common.add_argument("--permutations", type=int, default=5000, dest="n_permutations",
                        help="Monte Carlo permutations per gate (default 5000)")
    common.add_argument("--seed", type=int, default=0, dest="rng_seed",
                        help="seed for all randomness (default 0)")
    common.add_argument("--campaign", type=int, default=None,
                        help="campaign id (required for drilldown)")
    common.add_argument("--top-tweets", type=int, default=10, dest="top_tweets",
                        help="documents to label in drilldown (default 10)")
    common.add_argument("--top-terms", type=int, default=15, dest="top_terms",
                        help="terms to label in drilldown (default 15)")
    common.add_argument("--dims", choices=("full", "plane"), default="full",
                        help="coordinate space for clustering/segmentation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    config = PipelineConfig(**{k: v for k, v in vars(args).items() if k in fields})
    try:
        paths = run(args.subcommand, config)
    except Exception as exc:  # every failure ends in one JSON line, never a traceback
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError) and ": " in str(exc):
            payload["path"] = str(exc).rsplit(": ", 1)[-1]
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return exc.exit_code if isinstance(exc, ChronosemError) else UNEXPECTED_ERROR_EXIT
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
