"""Shared synthetic fixtures for the test suite."""

import csv
import json
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).parent / "data"
SYNTHETIC3 = DATA_DIR / "synthetic3.csv"

_SHARED = ["today", "week", "join", "share", "think", "idea", "question", "update"]

_TOPIC_POOLS = {
    1: ["garden", "seed", "soil", "bloom", "plant", "water", "grow", "leaf",
        "root", "flower", "green", "spring"],
    2: ["music", "chord", "tempo", "drum", "melody", "song", "band", "stage",
        "tune", "rhythm", "note", "sound"],
    3: ["space", "orbit", "star", "rocket", "moon", "planet", "comet",
        "launch", "galaxy", "cosmos", "beam", "sky"],
}

_DECORATIONS = ["!", "?", "!!", " :)", "...", ""]


def synthetic_corpus_rows(n_campaigns=3, docs_per_campaign=20, seed=20240501,
                          words_per_doc=7, pool_size=12, pools=None):
    """Chronological campaign-block corpus as (seq_no, text, init, campaign).

    Each campaign block shares a word pool; the first document of a block is
    the initiating one.  Texts carry light punctuation, case noise, hashtags
    and the occasional &amp; so the tokenizer path is exercised.
    """
    rng = np.random.default_rng(seed)
    if pools is None:
        pools = {
            c: (_TOPIC_POOLS[c][:pool_size] if c in _TOPIC_POOLS
                else [f"topic{c}word{i}" for i in range(pool_size)])
            for c in range(1, n_campaigns + 1)
        }
    rows = []
    seq = 1
    for c in range(1, n_campaigns + 1):
        pool = pools[c]
        for d in range(docs_per_campaign):
            words = list(rng.choice(pool, size=words_per_doc, replace=True))
            words.append(_SHARED[int(rng.integers(len(_SHARED)))])
            if rng.random() < 0.2:
                words.insert(int(rng.integers(len(words))), "&amp;")
            if rng.random() < 0.3:
                k = int(rng.integers(len(words)))
                words[k] = "#" + words[k]
            if rng.random() < 0.3:
                k = int(rng.integers(len(words)))
                words[k] = words[k].capitalize()
            text = " ".join(words) + _DECORATIONS[int(rng.integers(len(_DECORATIONS)))]
            rows.append((seq, text, int(d == 0), c))
            seq += 1
    return rows


def write_corpus_csv(rows, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seq_no", "text", "is_initiating", "campaign"])
        writer.writerows(rows)
    return path


def artifact_bytes(out):
    """Every artifact's bytes, and the manifest's hashes (its config names
    the output directory)."""
    got = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    got["manifest.json"] = json.loads((out / "manifest.json").read_text())["artifacts"]
    return got


def docs_from_rows(rows):
    from chronosem import Document

    return [
        Document(seq_no=s, raw_text=t, is_initiating=bool(i), campaign=c)
        for s, t, i, c in rows
    ]


def three_blob_points(master_seed=4, blob_size=5, sigma=1.0):
    """The frozen three-blob sequence used by the segmentation checks."""
    rng = np.random.default_rng(master_seed)
    centers = ((0.0, 0.0, 0.0), (20.0, 0.0, 0.0), (0.0, 30.0, 0.0))
    return np.vstack(
        [np.asarray(c) + sigma * rng.standard_normal((blob_size, 3)) for c in centers]
    )


def _alpha_suffix(k):
    """Base-26 alphabetic encoding so synthetic words survive tokenizing."""
    s = ""
    while True:
        s = chr(97 + k % 26) + s
        k //= 26
        if k == 0:
            return s


def scale_corpus_rows(n_blocks=20, docs_per_block=50, words_per_block=17, seed=7):
    """Production-scale corpus: ~1000 documents thresholding to ~350 terms."""
    pools = {
        c: [f"blk{_alpha_suffix(c)}w{_alpha_suffix(i)}" for i in range(words_per_block)]
        for c in range(1, n_blocks + 1)
    }
    return synthetic_corpus_rows(
        n_campaigns=n_blocks,
        docs_per_campaign=docs_per_block,
        seed=seed,
        words_per_doc=7,
        pool_size=words_per_block,
        pools=pools,
    )


def random_count_table(rng, max_rows=8, max_cols=6):
    """Random sparse-ish count table with strictly positive margins."""
    while True:
        n = int(rng.integers(2, max_rows + 1))
        p = int(rng.integers(2, max_cols + 1))
        counts = rng.poisson(1.3, size=(n, p))
        if counts.sum() and counts.sum(axis=1).all() and counts.sum(axis=0).all():
            return counts
