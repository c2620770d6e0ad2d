"""chronosem benchmark: the real CLI on frozen synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S        # all four workloads in turn

Closed loop: one CLI process at a time, each started after the previous
one exited, with BLAS pinned to one thread.  The corpus is generated from
--seed outside all timing, and the same seed is passed to the CLI.  Every
run's outputs are checked (checker.py); a non-zero exit or a failed check
counts as a failed run.

--trace 0 prints the end-to-end metrics: medians over the runs that fit in
--seconds.  --trace 1 alternates untraced and traced runs (spans.py) and
prints the per-layer metrics.  The last line of stdout is the result
object; the lines before it describe the runs, the inputs and the
environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
SETUP_PROBES = 3
MIN_RUNS = 3  # untraced runs per --trace 0 measurement
LAST_START_S = 150.0  # no run starts later than this into a measurement
TIME_LIMIT_S = 170.0  # a child still running at this point is killed


# name -> (subcommand, n_blocks of the frozen corpus: 50 docs per block).
# BENCHMARK.json gates all_1k and segment_3k; impact_3k and ingest_50k give
# the impact and corpus layers a workload of their own for layer studies.
# README.md says why each exists.
WORKLOADS = {
    "all_1k": ("all", 20),
    "segment_3k": ("segment", 60),
    "impact_3k": ("impact", 60),
    "ingest_50k": ("ingest", 1000),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
)

# (name, unit); every timing is span self time summed over the run.
PER_LAYER = (
    ("corpus.load_s", "s"),
    ("corpus.vocab_s", "s"),
    ("corpus.threshold_s", "s"),
    ("corpus.tokenize_calls", "count"),
    ("corpus.docs", "count"),
    ("corpus.docs_dropped", "count"),
    ("corpus.terms_seen", "count"),
    ("corpus.terms_retained", "count"),
    ("corpus.nnz", "count"),
    ("ca.normalize_s", "s"),
    ("ca.decompose_s", "s"),
    ("ca.export_s", "s"),
    ("ca.rows", "count"),
    ("ca.cols", "count"),
    ("ca.factors", "count"),
    ("ca.dense_mb", "MB"),
    ("cluster.cluster_s", "s"),
    ("cluster.pdist_s", "s"),
    ("cluster.export_s", "s"),
    ("cluster.merges", "count"),
    ("segmentation.segment_s", "s"),
    ("segmentation.pdist_s", "s"),
    ("segmentation.factor_map_s", "s"),
    ("segmentation.gates", "count"),
    ("segmentation.gates_blocked", "count"),
    ("segmentation.gates_degenerate", "count"),
    ("segmentation.permutations", "count"),
    ("segmentation.segments", "count"),
    ("segmentation.fuse_ratio", "ratio"),
    ("impact.report_s", "s"),
    ("impact.pairwise_s", "s"),
    ("impact.pdist_s", "s"),
    ("impact.pairs", "count"),
    ("impact.sorted_mb", "MB"),
    ("impact.campaigns_scored", "count"),
    ("impact.campaigns_skipped", "count"),
    ("cli.run_s", "s"),
    ("cli.self_s", "s"),
    ("cli.artifacts", "count"),
    ("cli.model_json_mb", "MB"),
    ("cli.cpu_s", "s"),
    ("cli.pdist_calls", "count"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Sample:
    setup_s: float | None  # None when the child never imported the CLI
    wall_s: float | None
    cpu_s: float
    peak_rss_mb: float | None
    exit_code: int
    traced: bool
    trace: dict | None  # spans and counters of a traced run that finished
    stderr: str


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def run_child(report, cli_args=(), traced=False, timeout=TIME_LIMIT_S):
    """Spawn child.py once and wait for it; a set-up probe without cli_args."""
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(report)]
    if traced:
        cmd.append("--trace")
    if cli_args:
        cmd += ["--", *cli_args]
    errors = report.with_suffix(".stderr")
    with open(errors, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
        )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        # wait4 reaps this child only, so the rusage is the run's own
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = errors.read_bytes()[-2000:].decode(errors="replace")
    try:
        payload = json.loads(report.read_text())
    except (FileNotFoundError, ValueError):  # never written, or cut short by a kill
        payload = {}
    done = payload.get("import_done")
    return Sample(
        setup_s=done - start if done else None,
        wall_s=end - done if done else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=payload.get("peak_rss_mb"),
        exit_code=proc.returncode,
        traced=traced,
        trace=payload.get("trace"),
        stderr=stderr,
    )


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest():
    """sha256 over the package sources: identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def layer_metrics(traced, untraced, model_json_mb):
    """Per-layer metrics: medians over the traced runs."""
    spans = [s.trace for s in traced]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "cli.run_s":
            values = [t["total_s"].get("cli.run", 0.0) for t in spans]
        elif name == "cli.self_s":
            values = [t["self_s"].get("cli.run", 0.0) for t in spans]
        elif name == "cli.cpu_s":
            values = [s.cpu_s for s in traced]
        elif name == "cli.model_json_mb":
            values = [model_json_mb]
        elif name == "trace.overhead_s":
            values = [median(s.wall_s for s in traced) - median(s.wall_s for s in untraced)]
        elif name.endswith("_s"):
            values = [t["self_s"].get(name[:-2], 0.0) for t in spans]
        else:
            values = [t["counts"].get(name, 0) for t in spans]
        metrics[name] = {"value": median(values), "unit": unit}
    return metrics


def span_problems(trace):
    """The span tree must be rooted at cli.run and its self times must add
    up to cli.run's duration."""
    problems = []
    if trace is None:
        return ["traced run wrote no spans"]
    if trace["roots"] != ["cli.run"]:
        problems.append(f"span roots {trace['roots']} are not exactly cli.run")
    if abs(sum(trace["self_s"].values()) - trace["total_s"].get("cli.run", 0.0)) > 1e-6:
        problems.append("span self times do not add up to cli.run")
    return problems


def measure(name, seed, seconds, trace):
    """Run one workload; returns (result, record)."""
    began = time.monotonic()
    subcommand, n_blocks = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    stem = WORK / f"{name}-{seed}"
    corpus = stem.with_suffix(".csv")
    out = stem.with_suffix(".out")
    report = stem.with_suffix(".json")
    rows = inputs.scale_corpus_rows(n_blocks=n_blocks, seed=seed)
    inputs.write_corpus_csv(rows, corpus)
    cli_args = [
        subcommand, "--input", str(corpus.relative_to(ROOT)),
        "--out", str(out.relative_to(ROOT)), "--seed", str(seed),
    ]

    def spawn(*args):
        return run_child(report, *args, timeout=TIME_LIMIT_S - (time.monotonic() - began))

    try:
        spawn()  # warm-up: byte-compile the sources, fill the page cache
        probes = [] if trace else [spawn() for _ in range(SETUP_PROBES)]
        runs = []  # (Sample, problems)
        reference = None  # (hashes, problems) of the first run
        model_json_mb = 0.0
        artifact_mb = None
        loop_start = time.monotonic()
        while True:
            traced = bool(trace) and len(runs) % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            sample = spawn(cli_args, traced)
            problems = []
            if sample.exit_code != 0:
                problems.append(f"exit code {sample.exit_code}: {sample.stderr.strip()}")
            else:
                hashes = checker.artifact_hashes(out)
                if reference is None:
                    reference = (hashes, checker.check_run(out, subcommand, rows, hashes))
                    artifact_mb = dir_bytes(out) / 1e6
                    if (out / "model.json").is_file():
                        model_json_mb = (out / "model.json").stat().st_size / 1e6
                if hashes == reference[0]:
                    problems += reference[1]
                else:
                    problems.append("artifact hashes differ from the first run's")
                    problems += checker.check_run(out, subcommand, rows, hashes)
                if traced:
                    problems += span_problems(sample.trace)
            runs.append((sample, problems))
            now = time.monotonic()
            enough = len(runs) >= (2 if trace else MIN_RUNS)
            spent = [s.setup_s + s.wall_s for s, _ in runs if s.wall_s is not None]
            next_run = median(spent) or 0.0
            if now - began > LAST_START_S or (enough and now - loop_start + next_run > seconds):
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for path in (corpus, report, report.with_suffix(".stderr")):
            path.unlink(missing_ok=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = sum(1 for _, p in runs if p)
    ok = [s for s, p in runs if not p]
    plain = [s for s in ok if not s.traced]
    if trace:
        traced_ok = [s for s in ok if s.traced]
        metrics = layer_metrics(traced_ok, plain, model_json_mb) if traced_ok and plain else {}
    else:
        metrics = {
            "setup_s": median([s.setup_s for s in probes + plain]),
            "wall_s": median([s.wall_s for s in plain]),
            "peak_rss_mb": median([s.peak_rss_mb for s in plain]),
            "artifact_mb": artifact_mb,
        }
        metrics = {k: {"value": v, "unit": dict(END_TO_END)[k]} for k, v in metrics.items()}
    wanted = PER_LAYER if trace else END_TO_END
    complete = all(metrics.get(k, {}).get("value") is not None for k, _ in wanted)
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "subcommand": subcommand,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "corpus": {"n_blocks": n_blocks, "docs": len(rows)},
        "error_rate": failed / len(runs),
        "setup_probes_s": [s.setup_s for s in probes],
        "runs": [
            {
                "traced": s.traced,
                "setup_s": s.setup_s,
                "wall_s": s.wall_s,
                "cpu_s": s.cpu_s,
                "peak_rss_mb": s.peak_rss_mb,
                "exit_code": s.exit_code,
                "problems": p,
            }
            for s, p in runs
        ],
        "environment": environment(),
    }
    return result, record


def summary_line(name, seed, result, record):
    parts = [f"{name} seed={seed}"]
    for key, metric in result["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.4g}"
        parts.append(f"{key} {shown} {metric['unit']}")
    parts.append(
        f"error_rate {record['error_rate']:.3g} ({result['failed']}/{result['attempted']} runs)"
    )
    return " | ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "chronosem" / "cli.py").is_file():
        print(f"perfbench: no chronosem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        result, record = measure(name, args.seed, args.seconds, args.trace)
        print(summary_line(name, args.seed, result, record))
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
