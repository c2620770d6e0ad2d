import os
import subprocess
import sys
import types

import pytest

import chronosem
from chronosem import ca, corpus, impact, segmentation

cluster_module = sys.modules["chronosem.cluster"]
MODULES = [ca, cluster_module, corpus, impact, segmentation]

# the public API: what each module exports through the package
EXPORTS = {
    "chronosem.ca": {
        "CAModel", "ProbabilityTable", "chi2_distance", "decompose", "fit_ca",
        "normalize", "project_supplementary_row", "row_contributions", "total_inertia",
    },
    "chronosem.cluster": {"Dendrogram", "cluster", "to_newick"},
    "chronosem.corpus": {
        "DEFAULT_STOPWORDS", "Document", "TermDocMatrix", "Vocabulary",
        "build_vocabulary", "load_corpus", "load_stopwords",
        "merge_adjacent_initiating", "threshold_matrix", "tokenize",
    },
    "chronosem.impact": {
        "CampaignImpact", "DrilldownResult", "ImpactReport", "PairwiseStats",
        "build_impact_report", "drilldown", "pairwise_distance_stats", "significance",
    },
    "chronosem.segmentation": {
        "BoundaryTest", "PermTestConfig", "PermTestResult", "SegmentationResult",
        "SegmentFactorMap", "perm_test", "segment", "segment_centroids_as_supplementary",
    },
}


def test_every_exported_name_resolves():
    # a star import fails on any name in __all__ the package does not define
    namespace = {}
    exec("from chronosem import *", namespace)
    assert set(chronosem.__all__) <= namespace.keys()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_resolve_in_their_module(module):
    assert set(module.__all__) == EXPORTS[module.__name__]
    for name in module.__all__:
        assert hasattr(module, name), name


def test_package_exports_the_module_lists_once_each():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # no name in two lists
    assert chronosem.__all__ == names
    for module in MODULES:
        for name in module.__all__:
            assert getattr(chronosem, name) is getattr(module, name)


def test_cluster_is_the_function_and_the_module_is_registered():
    # the benchmark's tracer wraps pdist on the module it finds in sys.modules
    assert isinstance(cluster_module, types.ModuleType)
    assert chronosem.cluster is cluster_module.cluster


def test_cli_start_up_loads_no_process_pool():
    # the worker pools import multiprocessing when they are made, so a run
    # that never forks does not pay for it
    code = (
        "import sys, chronosem.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))"
    )
    src = os.path.dirname(os.path.dirname(chronosem.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == "[]\n"
