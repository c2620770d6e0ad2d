"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps chronosem's public entry points at the names
``chronosem.cli.run`` reaches them through, records one span per call in
memory, and ``summary`` reduces the spans to per-layer self times and
counters when the run ends.  Nothing under ``src/`` is modified.

Where the names are looked up matters:

* ``chronosem.cluster`` is the *function* (the package re-exports it), so
  the module comes from ``sys.modules``.
* ``chronosem.cli`` binds ``build_dendrogram``, ``to_newick`` and
  ``dendrogram_json_dict`` at import time; they are wrapped on ``cli``.
* ``segment()`` reaches ``pdist`` through ``cluster._Agglomerator``, so each
  ``pdist`` span is named after the stage span that encloses it.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

PDIST_STAGES = ("cluster", "segmentation", "impact")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._patches = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _pdist_name(self):
        """``<stage>.pdist`` after the innermost open stage span."""
        for idx in reversed(self.stack):
            layer = self.spans[idx][0].split(".", 1)[0]
            if layer in PDIST_STAGES:
                return layer + ".pdist"
        return "cli.pdist"

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr, name, after=None):
        """Record a span per call; ``name`` may be a function of the stack."""

        def wrapper(original):
            def traced(*args, **kwargs):
                self._open(name() if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close()
                if after is not None:
                    after(result, *args)
                return result

            return traced

        self._patch(owner, attr, wrapper)

    def _count_calls(self, owner, attr, counter):
        def wrapper(original):
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return original(*args, **kwargs)

            return counted

        self._patch(owner, attr, wrapper)

    # -- counters taken from results -------------------------------------
    def _after_load(self, docs, *args):
        self.counts["corpus.docs"] = len(docs)

    def _after_vocab(self, vocab, *args):
        self.counts["corpus.terms_seen"] = len(vocab.terms)

    def _after_threshold(self, tdm, *args):
        self.counts["corpus.docs_dropped"] = len(tdm.dropped_docs)
        self.counts["corpus.terms_retained"] = tdm.n_terms
        self.counts["corpus.nnz"] = int(tdm.counts.nnz)

    def _after_decompose(self, model, table, *args):
        # the first fit is the pipeline's model; later fits (the segment
        # factor map) are timed but do not describe the analysed table
        if "ca.rows" not in self.counts:
            n, p = table.shape
            self.counts["ca.rows"] = n
            self.counts["ca.cols"] = p
            self.counts["ca.factors"] = model.n_factors
            self.counts["ca.dense_mb"] = n * p * 8 / 1e6

    def _after_cluster(self, dendro, *args):
        self.counts["cluster.merges"] = len(dendro.merges)

    def _after_segment(self, result, *args):
        gates = len(result.tests)
        blocked = len(result.blocked)
        degenerate = sum(t.degenerate for t in result.tests)
        self.counts["segmentation.gates"] = gates
        self.counts["segmentation.gates_blocked"] = blocked
        self.counts["segmentation.gates_degenerate"] = degenerate
        self.counts["segmentation.permutations"] = (
            (gates - degenerate) * result.config.n_permutations
        )
        self.counts["segmentation.segments"] = result.n_segments
        self.counts["segmentation.fuse_ratio"] = (gates - blocked) / gates if gates else 0.0

    def _after_pairwise(self, stats, *args):
        self.counts["impact.pairs"] = stats.n_pairs
        self.counts["impact.sorted_mb"] = stats.n_pairs * 8 / 1e6

    def _after_report(self, report, *args):
        self.counts["impact.campaigns_scored"] = len(report.campaigns)
        self.counts["impact.campaigns_skipped"] = len(report.skipped)

    def _after_pdist(self, distances, *args):
        self.counts["cli.pdist_calls"] += 1

    def _after_run(self, paths, *args):
        self.counts["cli.artifacts"] = len(paths)

    # -- install / reduce ------------------------------------------------
    def install(self):
        from chronosem import ca, cli, corpus, impact, segmentation

        cluster = sys.modules["chronosem.cluster"]
        self._span(cli, "run", "cli.run", self._after_run)
        self._span(corpus, "load_corpus", "corpus.load", self._after_load)
        self._span(corpus, "build_vocabulary", "corpus.vocab", self._after_vocab)
        self._span(corpus, "threshold_matrix", "corpus.threshold", self._after_threshold)
        self._count_calls(corpus, "tokenize", "corpus.tokenize_calls")
        self._span(ca, "normalize", "ca.normalize")
        self._span(ca, "decompose", "ca.decompose", self._after_decompose)
        self._span(ca, "model_export_dict", "ca.export")
        self._span(cli, "build_dendrogram", "cluster.cluster", self._after_cluster)
        self._span(cli, "to_newick", "cluster.export")
        self._span(cli, "dendrogram_json_dict", "cluster.export")
        self._span(segmentation, "segment", "segmentation.segment", self._after_segment)
        self._span(
            segmentation, "segment_centroids_as_supplementary", "segmentation.factor_map"
        )
        self._span(impact, "build_impact_report", "impact.report", self._after_report)
        self._span(impact, "pairwise_distance_stats", "impact.pairwise", self._after_pairwise)
        for owner in (cluster, segmentation, impact):
            self._span(owner, "pdist", self._pdist_name, self._after_pdist)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Self and total seconds per span name, the root span names and
        the counters.

        A span's self time is its duration minus that of its direct
        children, so the self times of a span tree add up to its root.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[idx]
            total_s[name] += end - start
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "roots": [name for name, _, _, parent in self.spans if parent < 0],
            "counts": dict(self.counts),
        }
