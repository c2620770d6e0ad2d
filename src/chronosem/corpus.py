"""Corpus ingestion and term-document matrix construction.

Raw documents are tokenized with deliberately blunt rules (alphabetic runs
only, no stemming or lemmatization), a vocabulary is thresholded on global
frequency and document count, and the surviving counts are assembled into a
sparse matrix whose rows and columns carry analysis roles: ordinary documents
are principal rows, initiating documents are supplementary rows, terms are
principal columns and per-campaign indicator columns are supplementary.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import AllDocumentsEmpty, CorpusFormatError

# Function-word and rump-token list used when no stopword file is supplied.
# Deliberately small: function words are kept unless they are pure noise,
# because they can be emotionally indicative in microblog text.
DEFAULT_STOPWORDS = frozenset(
    {
        "the", "to", "and", "of", "in", "it", "is", "for", "that", "on",
        "at", "be", "this", "what", "an", "if", "ve", "don", "ly", "th",
        "tr", "ll",
    }
)

# Leftovers of contraction splitting ("I'll" -> "ll" etc.), dropped under
# any stopword list.  "s" and "t" are already removed by the minimum-length
# rule; listed for clarity.
_RUMPS = frozenset({"ll", "s", "t"})
_MIN_TOKEN_LEN = 2

_ALPHA_RUN = re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class Document:
    """One chronological document of the corpus.

    ``seq_no`` is the 1-based chronological index; ``campaign`` groups
    documents into intervention periods and is required whenever
    ``is_initiating`` is set.
    """

    seq_no: int
    raw_text: str
    is_initiating: bool = False
    campaign: Optional[int] = None

    def __post_init__(self):
        if self.is_initiating and self.campaign is None:
            raise CorpusFormatError(
                f"document {self.seq_no}: initiating documents need a campaign id"
            )


def tokenize(raw_text: str, stopwords: frozenset = DEFAULT_STOPWORDS) -> list[str]:
    """Split raw text into retained terms.

    Rules, in order: the literal HTML-entity sequence ``&amp;`` becomes the
    word "and"; every maximal run of non-alphabetic characters acts as a
    delimiter (so punctuation fragments words rather than being deleted
    in place); tokens are lowercased; tokens shorter than 2 letters are
    dropped; ``stopwords`` and the contraction rumps "ll", "s" and "t" are
    dropped.  Empty input yields an empty list.
    """
    if not raw_text:
        return []
    text = raw_text.replace("&amp;", "and")
    out = []
    for match in _ALPHA_RUN.finditer(text):
        tok = match.group().lower()
        if len(tok) < _MIN_TOKEN_LEN or tok in stopwords or tok in _RUMPS:
            continue
        out.append(tok)
    return out


@dataclass
class Vocabulary:
    """Distinct post-tokenization terms with usage counts.

    ``terms`` preserves first-appearance order; ``counts`` is the
    documents x terms count matrix (one row per document, in corpus order,
    one column per entry of ``terms``); ``global_freq`` counts every
    occurrence, ``doc_count`` counts documents containing the term at least
    once.
    """

    terms: list[str]
    global_freq: dict[str, int]
    doc_count: dict[str, int]
    counts: sp.csr_matrix


def build_vocabulary(
    docs: Sequence[Document], stopwords: frozenset = DEFAULT_STOPWORDS
) -> Vocabulary:
    """Tokenize each document once into the documents x terms count matrix
    and derive the global and per-document counts from it."""
    if not docs:
        raise CorpusFormatError("cannot build a vocabulary from zero documents")
    index: dict[str, int] = {}
    cols, vals, indptr = [], [], [0]
    for doc in docs:
        for term, n in Counter(tokenize(doc.raw_text, stopwords)).items():
            cols.append(index.setdefault(term, len(index)))
            vals.append(n)
        indptr.append(len(cols))
    counts = sp.csr_matrix(
        (vals, cols, indptr), shape=(len(docs), len(index)), dtype=np.int64
    )
    terms = list(index)
    freq = np.asarray(counts.sum(axis=0)).ravel().tolist()
    ndocs = np.bincount(counts.indices, minlength=len(terms)).tolist()
    return Vocabulary(terms, dict(zip(terms, freq)), dict(zip(terms, ndocs)), counts)


@dataclass
class TermDocMatrix:
    """Thresholded counts with row/column role annotations.

    Rows follow corpus order over the retained documents.  The first
    ``len(terms)`` columns are principal term columns; one supplementary
    indicator column per campaign id follows (value 1 in the row's campaign
    column for every labelled document).
    """

    counts: sp.csr_matrix
    seq_nos: np.ndarray
    row_supplementary: np.ndarray  # bool per row; True = initiating document
    campaigns: np.ndarray  # int per row, -1 when unlabelled
    terms: list[str]
    campaign_ids: list[int]
    dropped_docs: list[int]  # seq_nos emptied by thresholding
    dropped_terms: list[str]  # retained by thresholds but absent from principal rows

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def principal_counts(self) -> sp.csr_matrix:
        """Principal-row x principal-column block (the analyzed table)."""
        return self.counts[~self.row_supplementary][:, : self.n_terms]

    def principal_seq_nos(self) -> np.ndarray:
        return self.seq_nos[~self.row_supplementary]

    def principal_campaigns(self) -> np.ndarray:
        return self.campaigns[~self.row_supplementary]

    def supplementary_rows(self) -> list[tuple[int, int, np.ndarray]]:
        """(seq_no, campaign, term-count vector) per supplementary row."""
        rows = np.flatnonzero(self.row_supplementary)
        counts = self.counts[rows, : self.n_terms].toarray()
        return [
            (int(self.seq_nos[i]), int(self.campaigns[i]), vector)
            for i, vector in zip(rows, counts)
        ]


def threshold_matrix(
    docs: Sequence[Document],
    vocab: Vocabulary,
    min_global_freq: int = 5,
    min_doc_count: int = 5,
) -> TermDocMatrix:
    """Retain sufficiently shared terms and assemble the role-tagged matrix.

    A term survives when ``global_freq >= min_global_freq`` and
    ``doc_count >= min_doc_count`` (counted over all documents) and a
    non-initiating document uses it.  Documents left with an all-zero row,
    initiating ones included, are dropped and recorded.  Initiating
    documents become supplementary rows; everything else is principal.
    ``vocab`` must come from :func:`build_vocabulary` on the same ``docs``.
    Raises :class:`AllDocumentsEmpty` when no principal document survives.
    """
    if min_global_freq < 1 or min_doc_count < 1:
        raise CorpusFormatError("thresholds must be >= 1")
    if vocab.counts.shape[0] != len(docs):
        raise CorpusFormatError(
            f"vocabulary counts {vocab.counts.shape[0]} documents, "
            f"not the {len(docs)} given"
        )
    freq, ndocs = vocab.global_freq, vocab.doc_count
    keep = np.array(
        [freq[t] >= min_global_freq and ndocs[t] >= min_doc_count for t in vocab.terms],
        dtype=bool,
    )
    # A term whose every occurrence sits in supplementary rows would leave a
    # zero column in the analyzed block.  It goes with the thresholds, before
    # the empty rows are found, so margins stay positive downstream and an
    # initiator left with only such terms is dropped as empty.
    initiating = np.array([d.is_initiating for d in docs], dtype=bool)
    used = vocab.counts.T @ (~initiating).astype(np.int64) > 0
    dropped_terms = [t for t, k, u in zip(vocab.terms, keep, used) if k and not u]
    retained = [t for t, k, u in zip(vocab.terms, keep, used) if k and u]
    term_block = vocab.counts[:, keep & used]
    nonempty = np.diff(term_block.indptr) > 0
    term_block = term_block[nonempty]
    kept_docs = [d for d, k in zip(docs, nonempty) if k]
    dropped = [d.seq_no for d, k in zip(docs, nonempty) if not k]

    supp = initiating[nonempty]
    if not kept_docs or not np.any(~supp):
        raise AllDocumentsEmpty(
            "no principal document survives thresholding "
            f"(min_global_freq={min_global_freq}, min_doc_count={min_doc_count})"
        )

    campaigns = np.array(
        [d.campaign if d.campaign is not None else -1 for d in kept_docs],
        dtype=np.int64,
    )
    labelled = np.flatnonzero(campaigns >= 0)
    campaign_ids = np.unique(campaigns[labelled])
    cat_block = sp.csr_matrix(
        (
            np.ones(len(labelled), dtype=np.int64),
            (labelled, np.searchsorted(campaign_ids, campaigns[labelled])),
        ),
        shape=(len(kept_docs), len(campaign_ids)),
    )
    counts = sp.hstack([term_block, cat_block], format="csr")

    return TermDocMatrix(
        counts=counts,
        seq_nos=np.array([d.seq_no for d in kept_docs], dtype=np.int64),
        row_supplementary=supp,
        campaigns=campaigns,
        terms=retained,
        campaign_ids=campaign_ids.tolist(),
        dropped_docs=dropped,
        dropped_terms=dropped_terms,
    )


def merge_adjacent_initiating(docs: Sequence[Document]) -> list[Document]:
    """Collapse each run of adjacent same-campaign initiating documents.

    Campaigns occasionally launch with two back-to-back posts; the pair is
    analyzed as a single initiating document that keeps the first seq_no
    and joins the texts with a space.  ``docs`` are in chronological order,
    as :func:`load_corpus` returns them.
    """
    out: list[Document] = []
    i = 0
    while i < len(docs):
        d = docs[i]
        if not d.is_initiating:
            out.append(d)
            i += 1
            continue
        j = i + 1
        while (
            j < len(docs)
            and docs[j].is_initiating
            and docs[j].campaign == d.campaign
        ):
            j += 1
        if j - i > 1:
            text = " ".join(doc.raw_text for doc in docs[i:j])
            d = Document(d.seq_no, text, True, d.campaign)
        out.append(d)
        i = j
    return out


def _read_text(path: Path) -> str:
    """The file's text, without a leading byte-order mark; a byte sequence
    that is not UTF-8 raises :class:`CorpusFormatError` naming
    ``path:line``."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after the mark, which has no newline
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None


def _read_records(path: Path):
    """Yield (line number, record) from a UTF-8 CSV or JSON-lines file.

    CSV rows must have as many fields as the header; a record spanning
    several lines is numbered by its last line.
    """
    text = _read_text(path)
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        for line, raw in enumerate(io.StringIO(text, newline=None), start=1):
            if not raw.strip():
                continue
            try:
                yield line, json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{line}: malformed JSON ({exc.msg})") from None
    else:
        reader = csv.DictReader(io.StringIO(text, newline=""))
        for rec in reader:
            if None in rec or None in rec.values():
                raise CorpusFormatError(
                    f"{path}:{reader.line_num}: row does not have the "
                    f"{len(reader.fieldnames)} fields of the header"
                )
            yield reader.line_num, rec


def _id_field(name: str, value) -> int:
    """A nonnegative int64 written as an integer: rejects 1.0, 1.5,
    booleans, and ids that are negative or do not fit the int64 arrays of
    :class:`TermDocMatrix` (whose campaigns mark "none" with -1)."""
    n = int(str(value))
    if not 0 <= n < 2**63:
        raise ValueError(f"{name} {n} outside 0..2**63-1")
    return n


_FLAGS = {
    "1": True, "true": True, "True": True,
    "0": False, "false": False, "False": False, "": False,
}


def _flag_field(value) -> bool:
    """0/1/true/false/True/False; empty or null means false."""
    text = "" if value is None else str(value).strip()
    if text not in _FLAGS:
        raise ValueError(f"is_initiating {value!r} is not one of 0, 1, true, false")
    return _FLAGS[text]


def load_corpus(path: str | Path) -> list[Document]:
    """Read a corpus from CSV or JSON-lines.

    Expected fields: ``seq_no``, ``text``, ``is_initiating`` (0/1/true/false,
    empty means false) and ``campaign`` (int, may be empty; required when
    ``is_initiating`` is set).  Both ids are nonnegative and fit int64, and
    seq_nos must be strictly increasing.
    Any record that breaks this layout raises :class:`CorpusFormatError`
    naming ``path:line``.
    """
    path = Path(path)
    docs: list[Document] = []
    prev = None
    for line, rec in _read_records(path):
        try:
            seq_no = _id_field("seq_no", rec["seq_no"])
            text = rec["text"]
            if text is None:
                raise ValueError("text is missing")
            init = _flag_field(rec.get("is_initiating"))
            camp = rec.get("campaign")
            campaign = (
                None if camp is None or str(camp).strip() == "" else _id_field("campaign", camp)
            )
            if init and campaign is None:
                raise ValueError("initiating documents need a campaign id")
        except (KeyError, ValueError, TypeError) as exc:
            raise CorpusFormatError(f"{path}:{line}: bad record {rec!r}: {exc}") from None
        if prev is not None and seq_no <= prev:
            raise CorpusFormatError(
                f"{path}:{line}: seq_no {seq_no} not strictly increasing"
            )
        prev = seq_no
        docs.append(
            Document(
                seq_no=seq_no,
                raw_text=str(text),
                is_initiating=init,
                campaign=campaign,
            )
        )
    if not docs:
        raise CorpusFormatError(f"{path}: corpus file is empty")
    return docs


def load_stopwords(path: str | Path) -> frozenset:
    """One term per line; blank lines ignored.  The file must be UTF-8
    (:class:`CorpusFormatError` naming ``path:line`` otherwise)."""
    lines = io.StringIO(_read_text(Path(path)), newline=None)
    return frozenset(line.strip() for line in lines if line.strip())


def matrix_to_coo_rows(tdm: TermDocMatrix) -> Iterable[tuple[int, int, int]]:
    """Coordinate-list triples (row, col, value) in row-major order."""
    coo = tdm.counts.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return zip(coo.row[order].tolist(), coo.col[order].tolist(), coo.data[order].tolist())


def matrix_roles_dict(tdm: TermDocMatrix) -> dict:
    """Sidecar metadata describing row/column roles for the COO export."""
    rows = [
        {
            "seq_no": seq_no,
            "role": "supplementary" if supp else "principal",
            "campaign": campaign if campaign >= 0 else None,
        }
        for seq_no, supp, campaign in zip(
            tdm.seq_nos.tolist(), tdm.row_supplementary.tolist(), tdm.campaigns.tolist()
        )
    ]
    cols = [{"name": t, "role": "term"} for t in tdm.terms]
    cols += [{"name": f"campaign:{c}", "role": "campaign"} for c in tdm.campaign_ids]
    return {
        "shape": [tdm.n_rows, tdm.counts.shape[1]],
        "rows": rows,
        "cols": cols,
        "dropped_docs": list(tdm.dropped_docs),
        "dropped_terms": list(tdm.dropped_terms),
    }
