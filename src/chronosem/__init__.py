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

# bind the modules first: `from .cluster import *` rebinds `cluster` to the
# function, and the tracer finds the module in sys.modules
from . import ca, cluster as _cluster, corpus, impact, segmentation
from .ca import *
from .cluster import *
from .corpus import *
from .impact import *
from .segmentation import *

__all__ = [*ca.__all__, *_cluster.__all__, *corpus.__all__, *impact.__all__,
           *segmentation.__all__]
