"""Frozen benchmark inputs.

A copy of ``tests/helpers.py::scale_corpus_rows`` (and the generator it
wraps) as it stood when the benchmark was defined, so that later edits to
the test helpers cannot shift what the benchmark measures.  ``selfcheck.py``
verifies that seed 7 still reproduces the helper's rows exactly.
"""

import csv
from pathlib import Path

import numpy as np

_SHARED = ["today", "week", "join", "share", "think", "idea", "question", "update"]
_DECORATIONS = ["!", "?", "!!", " :)", "...", ""]


def _alpha_suffix(k):
    s = ""
    while True:
        s = chr(97 + k % 26) + s
        k //= 26
        if k == 0:
            return s


def scale_corpus_rows(n_blocks=20, docs_per_block=50, words_per_block=17, seed=7):
    """Chronological block corpus as (seq_no, text, is_initiating, campaign).

    Block c draws its words from its own pool of ``words_per_block``
    synthetic words; the first document of each block initiates campaign c.
    """
    pools = {
        c: [f"blk{_alpha_suffix(c)}w{_alpha_suffix(i)}" for i in range(words_per_block)]
        for c in range(1, n_blocks + 1)
    }
    rng = np.random.default_rng(seed)
    rows = []
    seq = 1
    for c in range(1, n_blocks + 1):
        pool = pools[c]
        for d in range(docs_per_block):
            words = list(rng.choice(pool, size=7, replace=True))
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
