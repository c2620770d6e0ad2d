"""Latent semantic factor mapping, constrained segmentation and impact
scoring for chronological text corpora."""

__version__ = "0.1.0"

import os
import sys

# A threaded BLAS gives the SVD's near-tied trailing factors another basis,
# so a rerun would write other bytes on another core count.  BLAS reads
# these when numpy is first imported: a caller that imported numpy first
# keeps its own setting.
if "numpy" not in sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

from .ca import (
    CAModel,
    ProbabilityTable,
    chi2_distance,
    decompose,
    fit_ca,
    normalize,
    project_supplementary_row,
    row_contributions,
    total_inertia,
)
from .cluster import Dendrogram, cluster, to_newick
from .corpus import (
    DEFAULT_STOPWORDS,
    Document,
    TermDocMatrix,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    load_stopwords,
    merge_adjacent_initiating,
    threshold_matrix,
    tokenize,
)
from .impact import (
    CampaignImpact,
    DrilldownResult,
    ImpactReport,
    PairwiseStats,
    build_impact_report,
    drilldown,
    pairwise_distance_stats,
    significance,
)
from .segmentation import (
    BoundaryTest,
    PermTestConfig,
    PermTestResult,
    SegmentationResult,
    SegmentFactorMap,
    perm_test,
    segment,
    segment_centroids_as_supplementary,
)

__all__ = [
    "CAModel",
    "ProbabilityTable",
    "chi2_distance",
    "decompose",
    "fit_ca",
    "normalize",
    "project_supplementary_row",
    "row_contributions",
    "total_inertia",
    "Dendrogram",
    "cluster",
    "to_newick",
    "DEFAULT_STOPWORDS",
    "Document",
    "TermDocMatrix",
    "Vocabulary",
    "build_vocabulary",
    "load_corpus",
    "load_stopwords",
    "merge_adjacent_initiating",
    "threshold_matrix",
    "tokenize",
    "CampaignImpact",
    "DrilldownResult",
    "ImpactReport",
    "PairwiseStats",
    "build_impact_report",
    "drilldown",
    "pairwise_distance_stats",
    "significance",
    "BoundaryTest",
    "PermTestConfig",
    "PermTestResult",
    "SegmentationResult",
    "SegmentFactorMap",
    "perm_test",
    "segment",
    "segment_centroids_as_supplementary",
]
