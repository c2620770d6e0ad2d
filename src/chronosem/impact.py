"""Campaign impact in the latent factor space.

Impact is the Euclidean distance, over the full factor dimensionality,
between a campaign's initiating document (projected with zero mass) and the
campaign's centre of gravity (the aggregate profile of its ordinary
documents).  Each distance is assessed against the distribution of all
pairwise distances between non-initiating documents: a Gaussian z-score and
the empirical percentile of the impact distance within that distribution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import ca
from .cluster import _condensed, pdist
from .corpus import TermDocMatrix
from .errors import DegenerateSpread, EmptyCampaign

_COUNT_BLOCK = 1 << 16  # distances sorted at a time by percents_below


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
    return PairwiseStats(
        mean=float(dists.mean()),
        stdev=float(dists.std()),
        n_pairs=len(dists),
        distances=dists,
    )


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


def campaign_centroid(
    model: ca.CAModel, principal_counts, principal_campaigns, campaign: int
) -> np.ndarray:
    """Centre of gravity of a campaign's ordinary documents.

    Projects the summed term counts of the member documents as a zero-mass
    row, which lands exactly on the mass-weighted mean of the members'
    factor coordinates.
    """
    members = np.flatnonzero(np.asarray(principal_campaigns) == campaign)
    if len(members) == 0:
        raise EmptyCampaign(f"campaign {campaign} has no principal documents")
    agg = np.asarray(principal_counts[members].sum(axis=0)).ravel()
    return ca.project_supplementary_row(model, agg)


def impact_distance(
    initiating_coords: np.ndarray, centroid_coords: np.ndarray, dims: str = "full"
) -> float:
    """Euclidean distance over the full factor space or the leading plane."""
    a = np.asarray(initiating_coords, dtype=float)
    b = np.asarray(centroid_coords, dtype=float)
    if dims == "plane":
        a, b = a[:2], b[:2]
    elif dims != "full":
        raise ValueError(f"dims must be 'plane' or 'full', got {dims!r}")
    return float(np.linalg.norm(a - b))


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

    Several adjacent initiating documents of one campaign act as a single
    initiator (their term counts are pooled).  Campaigns without a usable
    initiating document or without ordinary member documents are listed in
    ``skipped`` instead of failing the whole report.  ``dist`` is an
    optional condensed distance vector of ``model.row_coords``.
    """
    principal_counts = tdm.principal_counts()
    principal_campaigns = tdm.principal_campaigns()
    stats = pairwise_distance_stats(model.row_coords, dist)

    initiators: dict[int, list[tuple[int, np.ndarray]]] = {}
    for seq_no, campaign, vector in tdm.supplementary_rows():
        initiators.setdefault(campaign, []).append((seq_no, vector))

    records: list[CampaignImpact] = []
    skipped: list[tuple[int, str]] = []
    for campaign in tdm.campaign_ids:
        if campaign not in initiators:
            skipped.append((campaign, "no initiating document survived thresholding"))
            continue
        members = np.flatnonzero(principal_campaigns == campaign)
        if len(members) == 0:
            skipped.append((campaign, "no principal documents"))
            continue
        seq_nos = tuple(s for s, _ in initiators[campaign])
        profile = np.sum([v for _, v in initiators[campaign]], axis=0)
        proj = ca.project_supplementary_row(model, profile)
        centroid = campaign_centroid(
            model, principal_counts, principal_campaigns, campaign
        )
        d_full = impact_distance(proj, centroid, "full")
        d_plane = impact_distance(proj, centroid, "plane")
        z, two_sided = significance(d_full, stats.mean, stats.stdev)
        records.append(
            CampaignImpact(
                campaign=campaign,
                distance_full=d_full,
                distance_plane=d_plane,
                z_score=z,
                two_sided_tail_percent=two_sided,
                one_sided_tail_percent=two_sided / 2.0,
                percent_pairs_below=math.nan,  # filled below, in one pass
                initiating_seq_nos=seq_nos,
                n_member_docs=int(len(members)),
            )
        )
    below = stats.percents_below([r.distance_full for r in records])
    records = [
        replace(r, percent_pairs_below=float(b)) for r, b in zip(records, below)
    ]
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
    top_tweets: int = 10,
    top_terms: int = 15,
) -> DrilldownResult:
    """Fresh factor space for one campaign's documents.

    The initiating document participates as a principal row here; columns
    are the retained terms with at least one occurrence inside the
    campaign.  Reports the documents contributing most to the leading
    plane's inertia and the terms with the largest planar coordinates.
    """
    rows = np.flatnonzero(tdm.campaigns == campaign)
    if len(rows) == 0:
        raise EmptyCampaign(f"campaign {campaign} has no documents")
    dense = np.asarray(tdm.counts[rows][:, : tdm.n_terms].todense(), dtype=float)
    keep = np.flatnonzero(dense.sum(axis=0) > 0)
    dense = dense[:, keep]
    terms = [tdm.terms[j] for j in keep]
    _, model = ca.fit_ca(dense)

    plane = min(2, model.n_factors)
    seq_nos = tdm.seq_nos[rows]
    init_seqs = [int(s) for s in tdm.seq_nos[rows][tdm.row_supplementary[rows]]]

    tweets: list[dict] = []
    if plane > 0:
        ctr = ca.row_contributions(model)[:, :plane]
        share = ctr.sum(axis=1) / model.eigenvalues[:plane].sum()
        order = np.argsort(-share, kind="stable")[: min(top_tweets, len(rows))]
        for i in order:
            tweets.append(
                {
                    "seq_no": int(seq_nos[i]),
                    "plane_contribution_percent": float(100.0 * share[i]),
                    "coords": model.row_coords[i, :plane].tolist(),
                }
            )

    term_list: list[dict] = []
    if plane > 0:
        mag = np.linalg.norm(model.col_coords[:, :plane], axis=1)
        order = np.argsort(-mag, kind="stable")[: min(top_terms, len(terms))]
        for j in order:
            term_list.append(
                {
                    "term": terms[j],
                    "plane_magnitude": float(mag[j]),
                    "coords": model.col_coords[j, :plane].tolist(),
                }
            )

    return DrilldownResult(
        campaign=campaign,
        model=model,
        seq_nos=seq_nos,
        terms=terms,
        initiating_seq_nos=init_seqs,
        top_tweets=tweets,
        top_terms=term_list,
    )
