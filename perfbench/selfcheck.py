"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

1. The frozen corpus generator (inputs.py) still reproduces
   ``tests/helpers.py::scale_corpus_rows`` for seed 7.
2. The output checker passes a real run and counts each of three broken
   copies of it as a failure: a segment gap, a wrong artifact hash and a
   non-monotone dendrogram height.
3. BENCHMARK.json lists exactly the metrics run.py reports, and only
   workloads it knows.

Exits non-zero if any check fails.
"""

import json
import shutil
import sys

import checker
import inputs
import run

SMALL_BLOCKS = 4


def check_frozen_inputs():
    sys.path.insert(0, str(run.ROOT / "tests"))
    import helpers

    for n_blocks in (20, 60):
        if inputs.scale_corpus_rows(n_blocks=n_blocks, seed=7) != helpers.scale_corpus_rows(
            n_blocks=n_blocks, seed=7
        ):
            return [f"inputs.scale_corpus_rows(n_blocks={n_blocks}, seed=7) differs from tests/helpers.py"]
    return []


def _rewrite_json(out, name, edit):
    """Apply edit() to one JSON artifact and re-hash it in the manifest, so
    only the check aimed at the edit can fire."""
    path = out / name
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["artifacts"]:
        if entry["path"] == name:
            entry["sha256"] = checker.sha256(path)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _segment_gap(out):
    def edit(payload):
        seg = next(s for s in payload["segments"] if len(s["members"]) > 2)
        del seg["members"][1]

    _rewrite_json(out, "segments.json", edit)


def _wrong_hash(out):
    path = out / "impact.csv"
    path.write_bytes(path.read_bytes() + b"\n")


def _height_drop(out):
    def edit(payload):
        merges = payload["merges"]
        merges[-1]["height"] = merges[-2]["height"] / 2

    _rewrite_json(out, "dendrogram.json", edit)


BREAKAGES = (
    ("segment gap", _segment_gap, "do not cover the principal seq_nos"),
    ("wrong hash", _wrong_hash, "sha256 does not match"),
    ("non-monotone height", _height_drop, "heights decrease"),
)


def check_checker():
    problems = []
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rows = inputs.scale_corpus_rows(n_blocks=SMALL_BLOCKS, seed=7)
        corpus = inputs.write_corpus_csv(rows, work / "corpus.csv")
        good = work / "good"
        sample = run.run_child(
            work / "report.json",
            ["all", "--input", str(corpus), "--out", str(good), "--seed", "7"],
        )
        if sample.exit_code != 0:
            return [f"reference run exited {sample.exit_code}: {sample.stderr.strip()}"]
        found = checker.check_run(good, "all", rows)
        if found:
            return [f"checker rejects a correct run: {found}"]
        failed = 0
        for label, breakage, expected in BREAKAGES:
            broken = work / label.replace(" ", "_")
            shutil.copytree(good, broken)
            breakage(broken)
            found = checker.check_run(broken, "all", rows)
            failed += bool(found)
            if not any(expected in p for p in found):
                problems.append(f"{label}: expected a problem containing {expected!r}, got {found}")
        if failed != len(BREAKAGES):
            problems.append(f"{failed} of {len(BREAKAGES)} broken runs counted as failures")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    return problems


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.WORKLOADS lacks")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def main():
    failures = 0
    for label, check in (
        ("frozen inputs", check_frozen_inputs),
        ("output checker", check_checker),
        ("BENCHMARK.json", check_benchmark_json),
    ):
        problems = check()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for p in problems:
            print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
