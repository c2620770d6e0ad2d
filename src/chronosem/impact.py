"""Campaign impact in the latent factor space.

Impact is the Euclidean distance, over the full factor dimensionality,
between a campaign's pooled initiating documents and the centre of
gravity of its ordinary documents, each a zero-mass row of summed
counts.  Each distance is assessed against the distribution of all
pairwise distances between non-initiating documents: a Gaussian z-score and
the empirical percentile of the impact distance within that distribution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ca
from .cluster import _condensed, pdist
from .corpus import TermDocMatrix
from .errors import DegenerateSpread, EmptyCampaign

__all__ = [
    "CampaignImpact",
    "DrilldownResult",
    "ImpactReport",
    "PairwiseStats",
    "build_impact_report",
    "drilldown",
    "pairwise_distance_stats",
    "significance",
]

_COUNT_BLOCK = 1 << 16  # distances sorted, or squared, at a time


@dataclass(frozen=True)
class PairwiseStats:
    """Distribution of all pairwise inter-document distances (full space)."""

    mean: float
    stdev: float  # population standard deviation over the n(n-1)/2 pairs
    n_pairs: int
    distances: np.ndarray = field(repr=False)  # condensed, pdist order

    def percents_below(self, ds) -> np.ndarray:
        """Empirical percentile of every d in ``ds``: the share of pairwise
        distances below d, in one pass.

        The distances are sorted one small block at a time and each d is
        counted into every sorted block by binary search, so no sorted copy
        of all the distances is kept and the cost barely grows with
        ``len(ds)``.
        """
        ds = np.asarray(ds, dtype=float)
        below = np.zeros(len(ds), dtype=np.int64)
        for start in range(0, len(self.distances), _COUNT_BLOCK):
            block = np.sort(self.distances[start : start + _COUNT_BLOCK])
            below += np.searchsorted(block, ds, side="left")
        return 100.0 * below / self.n_pairs


def pairwise_distance_stats(coords: np.ndarray, dist=None) -> PairwiseStats:
    """Mean/stdev/quantile base over all point pairs of a coordinate cloud.

    ``dist`` is an optional condensed distance vector of ``coords``, as
    returned by :func:`chronosem.cluster.pdist`, used without a copy;
    without it the distances are computed here.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or len(coords) < 2:
        raise DegenerateSpread("need at least two points for pairwise statistics")
    dists = pdist(coords) if dist is None else _condensed(dist, len(coords))
    mean = dists.mean()
    return PairwiseStats(
        mean=float(mean),
        stdev=math.sqrt(_sum_squared_deviations(dists, mean) / len(dists)),
        n_pairs=len(dists),
        distances=dists,
    )


def _sum_squared_deviations(x: np.ndarray, mean) -> float:
    """``np.sum((x - mean) ** 2)`` bit for bit, squaring ``_COUNT_BLOCK``
    values at most at a time along numpy's own pairwise split (``n2 = n / 2;
    n2 -= n2 % 8`` in ``pairwise_sum``, numpy's ``loops_utils.h.src``)."""
    if len(x) > _COUNT_BLOCK:
        half = len(x) // 2 - len(x) // 2 % 8
        return _sum_squared_deviations(x[:half], mean) + _sum_squared_deviations(x[half:], mean)
    d = x - mean
    return np.add.reduce(np.multiply(d, d, out=d))


def significance(distance_full: float, mean: float, stdev: float) -> tuple[float, float]:
    """z-score of an impact distance against the pairwise-distance cloud
    of the given mean and standard deviation.

    Returns (z, two-sided Gaussian tail percent beyond |z|).  The one-sided
    tail is half the returned percent.  Raises :class:`DegenerateSpread`
    when the spread is zero.
    """
    if stdev <= 0:
        raise DegenerateSpread("pairwise distance spread is zero")
    z = (distance_full - mean) / stdev
    tail_percent = 100.0 * math.erfc(abs(z) / math.sqrt(2.0))
    return z, tail_percent


@dataclass(frozen=True)
class CampaignImpact:
    campaign: int
    distance_full: float
    distance_plane: float
    z_score: float
    two_sided_tail_percent: float
    one_sided_tail_percent: float
    percent_pairs_below: float
    initiating_seq_nos: tuple[int, ...]
    n_member_docs: int


@dataclass
class ImpactReport:
    campaigns: list[CampaignImpact]
    mean_pairwise: float
    stdev_pairwise: float
    n_pairs: int
    skipped: list[tuple[int, str]]  # campaign id, reason

    def to_dict(self) -> dict:
        return {
            "global": {
                "mean_pairwise_distance": self.mean_pairwise,
                "stdev_pairwise_distance": self.stdev_pairwise,
                "n_pairs": self.n_pairs,
            },
            "campaigns": [asdict(c) for c in self.campaigns],
            "skipped_campaigns": [
                {"campaign": c, "reason": r} for c, r in self.skipped
            ],
        }


def build_impact_report(
    tdm: TermDocMatrix, model: ca.CAModel, dist=None
) -> ImpactReport:
    """Impact record for every campaign with an initiating document.

    A campaign's initiating documents are pooled into one initiator and its
    ordinary documents into one centre of gravity.  Campaigns without a
    usable initiating document or without ordinary documents are listed in
    ``skipped`` instead of failing the whole report.  ``dist`` is an
    optional condensed distance vector of ``model.row_coords``.
    """
    stats = pairwise_distance_stats(model.row_coords, dist)
    scored = []  # (campaign, initiating seq_nos, member count, initiator - centroid)
    skipped: list[tuple[int, str]] = []
    for campaign in tdm.campaign_ids:
        rows = np.flatnonzero(tdm.campaigns == campaign)
        launch = tdm.row_supplementary[rows]
        if not launch.any():
            skipped.append((campaign, "no initiating document survived thresholding"))
            continue
        if launch.all():
            skipped.append((campaign, "no principal documents"))
            continue
        proj = ca.project_supplementary_row(model, tdm.counts[rows[launch]].sum(axis=0))
        centroid = ca.project_supplementary_row(model, tdm.counts[rows[~launch]].sum(axis=0))
        seq_nos = tuple(tdm.seq_nos[rows[launch]].tolist())
        scored.append((campaign, seq_nos, int((~launch).sum()), proj - centroid))
    d_full = [float(np.linalg.norm(diff)) for *_, diff in scored]
    below = stats.percents_below(d_full)  # every campaign in one pass
    records: list[CampaignImpact] = []
    for (campaign, seq_nos, n_members, diff), d, b in zip(scored, d_full, below):
        z, two_sided = significance(d, stats.mean, stats.stdev)
        records.append(
            CampaignImpact(
                campaign=campaign,
                distance_full=d,
                distance_plane=float(np.linalg.norm(diff[:2])),
                z_score=z,
                two_sided_tail_percent=two_sided,
                one_sided_tail_percent=two_sided / 2.0,
                percent_pairs_below=float(b),
                initiating_seq_nos=seq_nos,
                n_member_docs=n_members,
            )
        )
    return ImpactReport(
        campaigns=records,
        mean_pairwise=stats.mean,
        stdev_pairwise=stats.stdev,
        n_pairs=stats.n_pairs,
        skipped=skipped,
    )


@dataclass
class DrilldownResult:
    """Campaign-only factor space with its most load-bearing entities."""

    campaign: int
    model: ca.CAModel
    seq_nos: np.ndarray
    terms: list[str]
    initiating_seq_nos: list[int]
    top_tweets: list[dict]  # seq_no, plane contribution share, coords
    top_terms: list[dict]  # term, plane coordinate magnitude, coords


def drilldown(
    tdm: TermDocMatrix,
    campaign: int,
    top_tweets: int,
    top_terms: int,
) -> DrilldownResult:
    """Fresh factor space for one campaign's documents.

    The initiating document participates as a principal row here; columns
    are the retained terms with at least one occurrence inside the
    campaign.  Reports the documents contributing most to the leading
    plane's inertia and the terms with the largest planar coordinates.
    """
    if campaign not in tdm.campaign_ids:  # -1 marks unlabelled documents
        raise EmptyCampaign(f"campaign {campaign} has no documents")
    rows = np.flatnonzero(tdm.campaigns == campaign)
    counts = tdm.counts[rows]
    keep = np.flatnonzero(counts.sum(axis=0))
    terms = [tdm.terms[j] for j in keep]
    model = ca.fit_ca(counts[:, keep])

    plane = min(2, model.n_factors)
    seq_nos = tdm.seq_nos[rows]
    init_seqs = seq_nos[tdm.row_supplementary[rows]].tolist()

    tweets, term_list = [], []
    if plane > 0:
        ctr = ca.row_contributions(model)[:, :plane]
        share = ctr.sum(axis=1) / model.eigenvalues[:plane].sum()
        mag = np.linalg.norm(model.col_coords[:, :plane], axis=1)
        tweets = [
            {
                "seq_no": int(seq_nos[i]),
                "plane_contribution_percent": float(100.0 * share[i]),
                "coords": model.row_coords[i, :plane].tolist(),
            }
            for i in np.argsort(-share, kind="stable")[:top_tweets]
        ]
        term_list = [
            {
                "term": terms[j],
                "plane_magnitude": float(mag[j]),
                "coords": model.col_coords[j, :plane].tolist(),
            }
            for j in np.argsort(-mag, kind="stable")[:top_terms]
        ]

    return DrilldownResult(
        campaign=campaign,
        model=model,
        seq_nos=seq_nos,
        terms=terms,
        initiating_seq_nos=init_seqs,
        top_tweets=tweets,
        top_terms=term_list,
    )
