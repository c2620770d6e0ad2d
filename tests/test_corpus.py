import csv
import io
import json
import re
import tempfile
from collections import Counter
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronosem import (
    DEFAULT_STOPWORDS,
    Document,
    build_vocabulary,
    load_corpus,
    load_stopwords,
    merge_adjacent_initiating,
    threshold_matrix,
    tokenize,
)
from chronosem import corpus
from chronosem.corpus import matrix_roles_dict, matrix_to_coo_rows
from chronosem.errors import AllDocumentsEmpty, CorpusFormatError
from helpers import docs_from_rows, synthetic_corpus_rows
from oracles import threshold_filter_bruteforce

CAMPAIGN1_TEXT = (
    "Introducing #climatechange! Is the climate changing?"
    "What are the observed changes?Are humans causing it? "
    "Discuss http://t.co/cMUOmbEt #dmuCC"
)

CAMPAIGN4_MERGED_TEXT = (
    "Goodmorning #DMU!! How was your weekend? We are talking about gas "
    "and heating this week! #dmuenergy Wishing you all a nice #ecomonday! "
    "Connect with us to discover what #DMU is already doing to cut its "
    "#gas use and tell us what you think we could all do to make it better!"
)

NO_STOPWORDS = frozenset()


class TestTokenize:
    def test_campaign1_fixture_terms_once_each(self):
        toks = tokenize(CAMPAIGN1_TEXT)
        for term in ("climate", "climatechange", "dmucc", "http"):
            assert toks.count(term) == 1

    def test_empty_input(self):
        assert tokenize("") == []

    def test_amp_substitution_before_splitting(self):
        # single-letter tokens fall to the length rule, "and" survives
        assert tokenize("A &amp; B!!", NO_STOPWORDS) == ["and"]
        # default stopword list contains "and"
        assert tokenize("A &amp; B!!") == []

    def test_punctuation_delimits_instead_of_deleting(self):
        # apostrophe splits "I've" leaving the rump "ve"
        assert tokenize("I've", NO_STOPWORDS) == ["ve"]
        assert tokenize("I've") == []  # "ve" is a default stopword
        assert tokenize("isn't wouldn't", NO_STOPWORDS) == ["isn", "wouldn"]

    def test_lowercasing_and_length_rule(self):
        assert tokenize("Gr8ly DMU a I ox", NO_STOPWORDS) == ["gr", "ly", "dmu", "ox"]

    def test_idempotent_on_own_output(self):
        texts = [
            CAMPAIGN1_TEXT,
            CAMPAIGN4_MERGED_TEXT,
            "Too twired to teet, too mailed out to e-shag.",
            "@someone you've got #hashtags &amp; URLs http://t.co/x",
        ]
        for cfg in (DEFAULT_STOPWORDS, NO_STOPWORDS):
            for text in texts:
                once = tokenize(text, cfg)
                again = tokenize(" ".join(once), cfg)
                assert again == once


class TestVocabulary:
    def test_counts_by_hand(self):
        docs = [
            Document(1, "apple banana"),
            Document(2, "banana cherry"),
            Document(3, "banana"),
        ]
        vocab = build_vocabulary(docs)
        assert set(vocab.terms) == {"apple", "banana", "cherry"}
        assert vocab.global_freq == {"apple": 1, "banana": 3, "cherry": 1}
        assert vocab.doc_count == {"apple": 1, "banana": 3, "cherry": 1}

    def test_single_empty_doc(self):
        vocab = build_vocabulary([Document(1, "")])
        assert vocab.terms == []

    def test_duplicate_token_one_doc(self):
        vocab = build_vocabulary([Document(1, "banana banana")])
        assert vocab.global_freq["banana"] == 2
        assert vocab.doc_count["banana"] == 1

    def test_requires_documents(self):
        with pytest.raises(CorpusFormatError):
            build_vocabulary([])


class TestThreshold:
    def _docs(self):
        return [
            Document(1, "alpha bravo alpha"),
            Document(2, "alpha charlie"),
            Document(3, "bravo charlie alpha"),
            Document(4, "delta delta"),
            Document(5, "alpha bravo"),
        ]

    def test_identity_thresholds_keep_everything(self):
        docs = self._docs()
        vocab = build_vocabulary(docs, NO_STOPWORDS)
        tdm = threshold_matrix(docs, vocab, 1, 1)
        assert set(tdm.terms) == {"alpha", "bravo", "charlie", "delta"}
        assert tdm.dropped_docs == []
        assert tdm.n_rows == 5

    def test_term_at_both_minimums_kept(self):
        # "bravo": freq 3 in 3 docs; "charlie": freq 2 in 2 docs
        docs = self._docs()
        vocab = build_vocabulary(docs, NO_STOPWORDS)
        assert set(threshold_matrix(docs, vocab, 3, 3).terms) == {"alpha", "bravo"}
        assert set(threshold_matrix(docs, vocab, 2, 2).terms) == {"alpha", "bravo", "charlie"}

    def test_term_dropped_by_doc_count(self):
        # "delta": freq 2 but only 1 doc -> dropped at (2, 3)
        docs = self._docs()
        vocab = build_vocabulary(docs, NO_STOPWORDS)
        tdm = threshold_matrix(docs, vocab, 2, 3)
        assert "delta" not in tdm.terms

    def test_doc_of_rare_terms_dropped(self):
        docs = self._docs()
        vocab = build_vocabulary(docs, NO_STOPWORDS)
        before = threshold_matrix(docs, vocab, 1, 1)
        after = threshold_matrix(docs, vocab, 2, 2)
        assert after.dropped_docs == [4]
        n_principal_before = int((~before.row_supplementary).sum())
        n_principal_after = int((~after.row_supplementary).sum())
        assert n_principal_after == n_principal_before - 1

    def test_retained_set_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(12)]
        for _ in range(25):
            docs = [
                Document(i + 1, " ".join(rng.choice(words, size=rng.integers(1, 7))))
                for i in range(rng.integers(2, 9))
            ]
            vocab = build_vocabulary(docs, NO_STOPWORDS)
            token_lists = [tokenize(d.raw_text, NO_STOPWORDS) for d in docs]
            for thresholds in ((1, 1), (2, 2), (3, 2), (2, 3)):
                expected = threshold_filter_bruteforce(token_lists, *thresholds)
                try:
                    tdm = threshold_matrix(docs, vocab, *thresholds)
                    assert set(tdm.terms) == expected
                except AllDocumentsEmpty:
                    # brute-force filter must then empty every document too
                    assert all(
                        not (set(toks) & expected) for toks in token_lists
                    )

    def test_order_independent_term_set(self):
        rows = synthetic_corpus_rows(docs_per_campaign=8)
        docs = docs_from_rows(rows)
        vocab = build_vocabulary(docs)
        tdm = threshold_matrix(docs, vocab, 3, 3)
        rng = np.random.default_rng(5)
        for _ in range(3):
            perm = list(rng.permutation(len(docs)))
            shuffled = [
                Document(i + 1, docs[k].raw_text, docs[k].is_initiating, docs[k].campaign)
                for i, k in enumerate(perm)
            ]
            vocab2 = build_vocabulary(shuffled)
            tdm2 = threshold_matrix(shuffled, vocab2, 3, 3)
            assert set(tdm2.terms) == set(tdm.terms)

    def test_principal_rows_strictly_positive(self):
        rows = synthetic_corpus_rows()
        docs = docs_from_rows(rows)
        vocab = build_vocabulary(docs)
        tdm = threshold_matrix(docs, vocab, 5, 5)
        sums = np.asarray(tdm.principal_counts().sum(axis=1)).ravel()
        assert np.all(sums > 0)

    def test_initiating_rows_supplementary_and_indicators(self):
        rows = synthetic_corpus_rows()
        docs = docs_from_rows(rows)
        vocab = build_vocabulary(docs)
        tdm = threshold_matrix(docs, vocab, 5, 5)
        init_seq = {r[0] for r in rows if r[2] == 1}
        got = {int(s) for s in tdm.seq_nos[tdm.row_supplementary]}
        assert got == init_seq
        # one 1 per labelled row in its campaign column
        indicators = np.asarray(
            tdm.counts[:, tdm.n_terms :].todense()
        )
        assert indicators.shape[1] == len(tdm.campaign_ids)
        assert np.all(indicators.sum(axis=1) == 1)  # every row labelled here
        for i in range(tdm.n_rows):
            col = tdm.campaign_ids.index(int(tdm.campaigns[i]))
            assert indicators[i, col] == 1

    def test_all_documents_empty(self):
        docs = [Document(1, "solo"), Document(2, "duo")]
        vocab = build_vocabulary(docs, NO_STOPWORDS)
        with pytest.raises(AllDocumentsEmpty):
            threshold_matrix(docs, vocab, 5, 5)

    def test_each_document_tokenized_once(self, monkeypatch):
        calls = []

        def counting(raw_text, stopwords=DEFAULT_STOPWORDS):
            calls.append(raw_text)
            return tokenize(raw_text, stopwords)

        monkeypatch.setattr(corpus, "tokenize", counting)
        docs = docs_from_rows(synthetic_corpus_rows(docs_per_campaign=8))
        threshold_matrix(docs, build_vocabulary(docs), 3, 3)
        assert calls == [d.raw_text for d in docs]

    def test_term_block_matches_tokenizer_counts(self):
        docs = docs_from_rows(synthetic_corpus_rows(docs_per_campaign=8))
        for cfg, thresholds in ((DEFAULT_STOPWORDS, (3, 3)), (NO_STOPWORDS, (2, 4))):
            tdm = threshold_matrix(docs, build_vocabulary(docs, cfg), *thresholds)
            by_seq = {d.seq_no: Counter(tokenize(d.raw_text, cfg)) for d in docs}
            expected = [[by_seq[int(s)][t] for t in tdm.terms] for s in tdm.seq_nos]
            got = tdm.counts[:, : tdm.n_terms].toarray()
            assert got.tolist() == expected

    def test_rejects_vocabulary_of_other_documents(self):
        docs = self._docs()
        vocab = build_vocabulary(docs[:3], NO_STOPWORDS)
        with pytest.raises(CorpusFormatError, match="vocabulary"):
            threshold_matrix(docs, vocab, 1, 1)


class TestMergeInitiating:
    def _docs(self):
        return [
            Document(302, "regular tweet", False, 4),
            Document(303, "gas week one", True, 4),
            Document(304, "gas week two", True, 4),
            Document(410, "water splash", True, 5),
        ]

    def test_auto_merge_rewrites_runs(self):
        out = merge_adjacent_initiating(self._docs())
        assert [d.seq_no for d in out] == [302, 303, 410]
        assert out[1].raw_text == "gas week one gas week two"

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=15))
    def test_auto_merge_equals_merge_initiating_per_run(self, runs):
        # (0, c): an ordinary document; (k, c): k initiators of campaign c
        docs = []
        for size, campaign in runs:
            for k in range(max(size, 1)):
                n = len(docs) + 1
                docs.append(Document(n, f"text{n}", size > 0, campaign))
        expected = []
        for (init, _), run in groupby(
            docs, key=lambda d: (d.is_initiating, d.campaign if d.is_initiating else d.seq_no)
        ):
            run = list(run)
            # a run of initiators pools into one: first seq_no, texts joined
            if init and len(run) > 1:
                texts = [d.raw_text for d in run]
                run[0] = Document(run[0].seq_no, " ".join(texts), True, run[0].campaign)
            expected.append(run[0])
        assert merge_adjacent_initiating(docs) == expected


class TestCorpusIO:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "seq_no,text,is_initiating,campaign\n"
            '1,"hello, world",1,1\n'
            "2,plain text,0,1\n"
            "3,no campaign here,0,\n"
        )
        docs = load_corpus(path)
        assert [d.seq_no for d in docs] == [1, 2, 3]
        assert docs[0].is_initiating and docs[0].campaign == 1
        assert docs[2].campaign is None

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        recs = [
            {"seq_no": 1, "text": "alpha", "is_initiating": 1, "campaign": 2},
            {"seq_no": 5, "text": "beta", "is_initiating": 0, "campaign": None},
        ]
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        docs = load_corpus(path)
        assert docs[0].campaign == 2 and docs[1].campaign is None

    def test_seq_no_must_increase(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("seq_no,text,is_initiating,campaign\n2,a,0,\n2,b,0,\n")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_initiating_requires_campaign(self):
        with pytest.raises(CorpusFormatError):
            Document(1, "text", is_initiating=True, campaign=None)

    @pytest.mark.parametrize(
        "value, expected",
        [("0", False), ("1", True), ("true", True), ("false", False),
         ("True", True), ("False", False), ("", False)],
    )
    def test_csv_initiating_spellings(self, tmp_path, value, expected):
        path = tmp_path / "corpus.csv"
        path.write_text(f"seq_no,text,is_initiating,campaign\n1,alpha beta,{value},1\n")
        assert load_corpus(path)[0].is_initiating is expected

    @pytest.mark.parametrize(
        "extra, expected",
        [({"is_initiating": True}, True), ({"is_initiating": False}, False),
         ({"is_initiating": 1}, True), ({"is_initiating": None}, False), ({}, False)],
    )
    def test_jsonl_initiating_values(self, tmp_path, extra, expected):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"seq_no": 1, "text": "alpha", "campaign": 1, **extra}))
        assert load_corpus(path)[0].is_initiating is expected

    @pytest.mark.parametrize("field", ["seq_no", "campaign"])
    def test_ids_are_nonnegative_int64(self, tmp_path, field):
        path = tmp_path / "corpus.jsonl"
        for value, ok in ((0, True), (2**63 - 1, True), (2**63, False), (-1, False)):
            rec = {"seq_no": 1, "text": "alpha", "is_initiating": 1, "campaign": 1, field: value}
            path.write_text(json.dumps(rec) + "\n")
            if ok:
                assert getattr(load_corpus(path)[0], field) == value
            else:
                with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:1: "):
                    load_corpus(path)

    def test_stopword_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("and\nthe\n\nwith\n")
        assert load_stopwords(path) == frozenset({"and", "the", "with"})

    def test_matrix_export_round_trip(self):
        rows = synthetic_corpus_rows(docs_per_campaign=6)
        docs = docs_from_rows(rows)
        tdm = threshold_matrix(docs, build_vocabulary(docs), 2, 2)
        roles = matrix_roles_dict(tdm)
        triples = list(matrix_to_coo_rows(tdm))
        assert roles["shape"] == [tdm.n_rows, tdm.counts.shape[1]]
        assert len(roles["rows"]) == tdm.n_rows
        assert sum(1 for c in roles["cols"] if c["role"] == "term") == tdm.n_terms
        dense = np.zeros(roles["shape"])
        for r, c, v in triples:
            dense[r, c] = v
        assert np.array_equal(dense, np.asarray(tdm.counts.todense()))


# text of any Unicode scalar values (UTF-8 cannot hold lone surrogates)
_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def _records(draw):
    """Strictly increasing seq_nos with random texts, flags and campaigns."""
    gaps = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=8))
    seq_nos = np.cumsum(gaps).tolist()
    docs = []
    for seq_no in seq_nos:
        initiating = draw(st.booleans())
        campaign = draw(st.integers(0, 10**6) if initiating else st.none() | st.integers(0, 10**6))
        docs.append(Document(seq_no, draw(_texts), initiating, campaign))
    return docs


def _csv_bytes(docs, flags, extra=()):
    """CSV with the csv module's CRLF rows, so a text holding CR or LF is
    quoted; ``extra`` fields go on the last row."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["seq_no", "text", "is_initiating", "campaign"])
    for k, d in enumerate(docs, start=1):
        campaign = "" if d.campaign is None else d.campaign
        tail = extra if k == len(docs) else ()
        writer.writerow([d.seq_no, d.raw_text, flags[d.is_initiating], campaign, *tail])
    return out.getvalue().encode("utf-8")


def _jsonl_bytes(docs, ensure_ascii):
    lines = [
        json.dumps(
            {"seq_no": d.seq_no, "text": d.raw_text, "is_initiating": d.is_initiating,
             "campaign": d.campaign},
            ensure_ascii=ensure_ascii,
        )
        for d in docs
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _load(name, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            return load_corpus(path)
        except CorpusFormatError as exc:
            # the message names the file, and the line after it
            prefix = re.escape(str(path))
            assert re.match(rf"{prefix}:(\d+:|\s)", str(exc)), str(exc)
            raise CorpusFormatError(str(exc).replace(str(path), name, 1)) from None


class TestCorpusProperties:
    @given(
        docs=_records(),
        flags=st.sampled_from([("0", "1"), ("false", "true"), ("False", "True"), ("", "1")]),
    )
    def test_csv_round_trip(self, docs, flags):
        assert _load("c.csv", _csv_bytes(docs, flags)) == docs

    @given(docs=_records(), ensure_ascii=st.booleans(), suffix=st.sampled_from(["jsonl", "json"]))
    def test_jsonl_round_trip(self, docs, ensure_ascii, suffix):
        assert _load(f"c.{suffix}", _jsonl_bytes(docs, ensure_ascii)) == docs

    @given(docs=_records(), where=st.integers(0, 10**6), data=st.data())
    def test_non_utf8_names_its_line(self, docs, where, data):
        good = data.draw(st.sampled_from([_csv_bytes(docs, ("0", "1")), _jsonl_bytes(docs, False)]))
        bad_byte = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        cut = where % (len(good) + 1)
        # keep a multi-byte character whole, so the bad byte is the first error
        while cut < len(good) and (good[cut] & 0xC0) == 0x80:
            cut += 1
        line = good.count(b"\n", 0, cut) + 1
        name = "c.csv" if good.startswith(b"seq_no") else "c.jsonl"
        with pytest.raises(CorpusFormatError, match=rf"^{name}:{line}: not valid UTF-8"):
            _load(name, good[:cut] + bad_byte + good[cut:])

    @given(docs=_records(), where=st.integers(0, 10**6), data=st.data())
    def test_malformed_record_names_its_line(self, docs, where, data):
        k = where % len(docs)
        if data.draw(st.booleans()):
            # record k gets a fifth field; the csv reader numbers a record by
            # its last line, and a quoted CR or LF starts a line
            name, bad = "c.csv", _csv_bytes(docs[: k + 1], ("0", "1"), extra=["extra"])
            line = len(io.StringIO(bad.decode(), newline="").readlines())
        else:
            name, lines = "c.jsonl", _jsonl_bytes(docs, False).split(b"\n")
            lines[k] = lines[k][:-1]  # drop the closing brace
            bad, line = b"\n".join(lines), k + 1
        with pytest.raises(CorpusFormatError, match=rf"^{name}:{line}: "):
            _load(name, bad)

    @settings(max_examples=300)
    @given(data=st.binary(max_size=200), suffix=st.sampled_from(["csv", "jsonl"]))
    def test_any_bytes_load_or_raise_corpus_format_error(self, data, suffix):
        header = b"seq_no,text,is_initiating,campaign\n" if suffix == "csv" else b""
        try:
            docs = _load(f"c.{suffix}", header + data)
        except CorpusFormatError:
            return
        assert docs and all(isinstance(d, Document) for d in docs)


class TestTokenizeProperties:
    @given(text=_texts)
    def test_tokens_are_kept_lowercase_words(self, text):
        for tok in tokenize(text):
            assert re.fullmatch(r"[a-z]{2,}", tok)
            assert tok not in DEFAULT_STOPWORDS

    @given(text=_texts)
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(a=_texts, b=_texts, sep=st.sampled_from([" ", "!", "\n", "3", "#", "\u00e9"]))
    def test_non_letters_split_text(self, a, b, sep):
        # no token and no "&amp;" spans a non-letter separator
        assert tokenize(a + " " + sep + " " + b) == tokenize(a) + tokenize(b)

    @given(text=_texts)
    def test_matches_regex_oracle(self, text):
        words = re.findall(r"[a-z]+", text.replace("&amp;", "and").lower())
        expected = [
            w for w in words
            if len(w) >= 2 and w not in DEFAULT_STOPWORDS and w not in {"ll", "s", "t"}
        ]
        assert tokenize(text) == expected
