"""Output checks for one benchmark run of the chronosem CLI.

``check_run`` returns a list of problems (empty when the run is correct).
Expectations come from the generated corpus and from the artifact table of
PAPER.md, never from the program under test.
"""

import csv
import hashlib
import json
from pathlib import Path

# PAPER.md's artifact table, per subcommand; "all" writes every stage's set.
STAGE_ARTIFACTS = {
    "ingest": ("matrix.csv", "matrix_roles.json", "vocab.csv"),
    "ca": ("model.json", "model_rows.csv", "model_cols.csv"),
    "cluster": ("dendrogram.json", "dendrogram.newick", "dendrogram.csv"),
    "segment": ("segments.json", "segments.csv"),
    "impact": ("impact.json", "impact.csv", "impact_curve.csv"),
}
STAGE_ARTIFACTS["all"] = tuple(f for files in STAGE_ARTIFACTS.values() for f in files)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_hashes(out):
    """sha256 of every file in the output directory, by name."""
    return {p.name: sha256(p) for p in sorted(Path(out).iterdir()) if p.is_file()}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest(out, subcommand, hashes):
    problems = []
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    try:
        manifest = _load(manifest_path)
    except ValueError as exc:
        return [f"manifest.json is not JSON: {exc}"]
    if manifest.get("subcommand") != subcommand:
        problems.append(f"manifest subcommand {manifest.get('subcommand')!r} != {subcommand!r}")
    listed = {e["path"]: e["sha256"] for e in manifest.get("artifacts", [])}
    for name in STAGE_ARTIFACTS[subcommand]:
        if name not in hashes:
            problems.append(f"{name} missing")
        elif name not in listed:
            problems.append(f"{name} not listed in the manifest")
    for name, digest in listed.items():
        if name in hashes and hashes[name] != digest:
            problems.append(f"{name} sha256 does not match the manifest")
    return problems


def check_segments(out, principal):
    problems = []
    payload = _load(out / "segments.json")
    segments = payload["segments"]
    if payload["n_segments"] != len(segments):
        problems.append("segments.json n_segments disagrees with its segment list")
    flat = [s for seg in segments for s in seg["members"]]
    if flat != principal:
        problems.append("segments do not cover the principal seq_nos contiguously in order")
    bad_spans = [
        seg["id"]
        for seg in segments
        if not seg["members"]
        or (seg["start_seq"], seg["end_seq"]) != (seg["members"][0], seg["members"][-1])
    ]
    if bad_spans:
        problems.append(f"{len(bad_spans)} segment spans disagree with their members")
    ends = {seg["end_seq"] for seg in segments[:-1]}
    blocked = {b["boundary_after_seq"] for b in payload["blocked"]}
    if blocked != ends:
        problems.append("blocked boundaries are not exactly the segment boundaries")
    rows = _read_csv(out / "segments.csv")[1:]
    if [int(r[3]) for r in rows] != [len(seg["members"]) for seg in segments]:
        problems.append("segments.csv disagrees with segments.json")
    return problems


def check_dendrogram(out, principal):
    problems = []
    payload = _load(out / "dendrogram.json")
    heights = [m["height"] for m in payload["merges"]]
    if payload["leaves"] != principal:
        problems.append("dendrogram leaves are not the principal seq_nos in order")
    if len(heights) != len(payload["leaves"]) - 1:
        problems.append(f"dendrogram has {len(heights)} merges for {len(payload['leaves'])} leaves")
    if any(b < a for a, b in zip(heights, heights[1:])):
        problems.append("dendrogram merge heights decrease")
    if len(_read_csv(out / "dendrogram.csv")) - 1 != len(heights):
        problems.append("dendrogram.csv disagrees with dendrogram.json")
    return problems


def check_impact(out, principal, campaigns):
    problems = []
    payload = _load(out / "impact.json")
    n = len(principal)
    if payload["global"]["n_pairs"] != n * (n - 1) // 2:
        problems.append(f"impact n_pairs {payload['global']['n_pairs']} != n(n-1)/2 for n={n}")
    seen = [c["campaign"] for c in payload["campaigns"]]
    seen += [c["campaign"] for c in payload["skipped_campaigns"]]
    if sorted(seen) != sorted(campaigns):
        problems.append("impact.json does not hold exactly one record or skip per campaign")
    rows = _read_csv(out / "impact.csv")[1:]
    if [int(r[0]) for r in rows] != [c["campaign"] for c in payload["campaigns"]]:
        problems.append("impact.csv disagrees with impact.json")
    return problems


def check_ingest(out, principal):
    problems = []
    roles = _load(out / "matrix_roles.json")
    n_rows, n_cols = roles["shape"]
    if len(roles["rows"]) != n_rows or len(roles["cols"]) != n_cols:
        problems.append("matrix_roles.json row/col lists disagree with its shape")
    role_principal = [r["seq_no"] for r in roles["rows"] if r["role"] == "principal"]
    if role_principal != principal:
        problems.append("matrix_roles.json principal rows are not the principal seq_nos")
    triples = _read_csv(out / "matrix.csv")[1:]
    keys = [(int(r), int(c)) for r, c, _ in triples]
    if keys != sorted(set(keys)):
        problems.append("matrix.csv triples are not unique and row-major")
    if any(not (0 <= r < n_rows and 0 <= c < n_cols) for r, c in keys):
        problems.append("matrix.csv has an index outside matrix_roles.json's shape")
    if any(int(v) <= 0 for _, _, v in triples):
        problems.append("matrix.csv has a non-positive count")
    if {r for r, _ in keys} != set(range(n_rows)):
        problems.append("matrix.csv leaves a row of matrix_roles.json empty")
    retained = sum(1 for r in _read_csv(out / "vocab.csv")[1:] if r[3] == "1")
    n_terms = sum(1 for c in roles["cols"] if c["role"] == "term")
    if retained != n_terms:
        problems.append(f"vocab.csv retains {retained} terms, matrix has {n_terms}")
    return problems


def check_run(out, subcommand, corpus_rows, hashes=None):
    """Every problem found in one run's output directory ``out``.

    ``corpus_rows`` are the (seq_no, text, is_initiating, campaign) rows the
    run read.  Principal documents are the non-initiating ones: the
    benchmark corpora drop no document at the default thresholds.
    """
    out = Path(out)
    if hashes is None:
        hashes = artifact_hashes(out)
    problems = check_manifest(out, subcommand, hashes)
    if problems:
        return problems
    principal = [s for s, _, init, _ in corpus_rows if not init]
    campaigns = sorted({c for _, _, _, c in corpus_rows})
    files = STAGE_ARTIFACTS[subcommand]
    try:
        if "matrix.csv" in files:
            problems += check_ingest(out, principal)
        if "dendrogram.json" in files:
            problems += check_dendrogram(out, principal)
        if "segments.json" in files:
            problems += check_segments(out, principal)
        if "impact.json" in files:
            problems += check_impact(out, principal, campaigns)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed artifact: {type(exc).__name__}: {exc}")
    return problems
