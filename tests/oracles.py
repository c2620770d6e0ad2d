"""Independent brute-force reference implementations.

Everything here is written from the defining formulas with plain loops (or
an unrelated library routine) so the package code paths are checked against
a second, slower derivation rather than against themselves.
"""

import itertools
import math

import numpy as np
from scipy.stats import chi2_contingency


def probability_table(counts):
    counts = np.asarray(counts, dtype=float)
    f = counts / counts.sum()
    return f, f.sum(axis=1), f.sum(axis=0)


def chi2_distance_direct(counts, i, k):
    """Row-profile distance straight from the weighted-Euclidean formula."""
    f, fi, fj = probability_table(counts)
    total = 0.0
    for j in range(f.shape[1]):
        total += (1.0 / fj[j]) * (f[i, j] / fi[i] - f[k, j] / fi[k]) ** 2
    return math.sqrt(total)


def inertia_row_cloud(counts):
    """Mass-weighted squared distances of row profiles to the mean profile."""
    f, fi, fj = probability_table(counts)
    total = 0.0
    for i in range(f.shape[0]):
        acc = 0.0
        for j in range(f.shape[1]):
            acc += (1.0 / fj[j]) * (f[i, j] / fi[i] - fj[j]) ** 2
        total += fi[i] * acc
    return total


def inertia_col_cloud(counts):
    f, fi, fj = probability_table(counts)
    total = 0.0
    for j in range(f.shape[1]):
        acc = 0.0
        for i in range(f.shape[0]):
            acc += (1.0 / fi[i]) * (f[i, j] / fj[j] - fi[i]) ** 2
        total += fj[j] * acc
    return total


def inertia_via_chi2_statistic(counts):
    """chi-squared statistic of the counts divided by the grand total."""
    stat = chi2_contingency(np.asarray(counts), correction=False)[0]
    return stat / np.asarray(counts).sum()


def eigenvalues_bruteforce(counts):
    """Eigen-decomposition of the residual cross-product matrix.

    Builds the standardized residuals cell by cell, then diagonalizes the
    p x p symmetric matrix Z'Z with eigh (a different LAPACK path than the
    SVD used by the package).  Returns eigenvalues sorted descending with
    the structural near-zero directions removed.
    """
    f, fi, fj = probability_table(counts)
    n, p = f.shape
    z = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            z[i, j] = (f[i, j] - fi[i] * fj[j]) / math.sqrt(fi[i] * fj[j])
    vals = np.linalg.eigh(z.T @ z)[0][::-1]
    vals = np.clip(vals, 0.0, None)
    rank_cap = max(min(n - 1, p - 1), 0)
    return vals[:rank_cap]


def _complete_link(points, a_members, b_members):
    best = 0.0
    for i in a_members:
        for k in b_members:
            d = math.sqrt(sum((points[i][t] - points[k][t]) ** 2 for t in range(len(points[i]))))
            best = max(best, d)
    return best


def constrained_complete_link_bruteforce(points, gate=None):
    """Step-by-step adjacent-pair agglomeration, recomputed from scratch.

    Returns a list of (left_members, right_members, height) per merge,
    ties broken toward the earliest adjacent pair.  With
    ``gate(left_members, right_members)``, a proposal the gate rejects
    blocks that boundary for good (keyed by the last left member) and the
    next-lowest unblocked pair is proposed; the loop stops once every
    remaining boundary is blocked.
    """
    points = [list(map(float, p)) for p in np.atleast_2d(points)]
    clusters = [[i] for i in range(len(points))]
    blocked = set()
    merges = []
    while True:
        best_pos, best_d = None, None
        for pos in range(len(clusters) - 1):
            if clusters[pos][-1] in blocked:
                continue
            d = _complete_link(points, clusters[pos], clusters[pos + 1])
            if best_d is None or d < best_d:
                best_pos, best_d = pos, d
        if best_pos is None:
            return merges
        left, right = clusters[best_pos], clusters[best_pos + 1]
        if gate is not None and not gate(list(left), list(right)):
            blocked.add(left[-1])
            continue
        merges.append((list(left), list(right), best_d))
        clusters[best_pos] = left + right
        del clusters[best_pos + 1]


def exhaustive_perm_p(dist_matrix, n_a):
    """Exact permutation p for the inter-group high-distance count.

    Enumerates every way of assigning n_a of the union's members to the
    first group.  Distances strictly above the median of all pairwise
    distances are "high"; h is the observed inter-group high count and p
    the fraction of assignments reaching it.
    """
    dist_matrix = np.asarray(dist_matrix, dtype=float)
    m = dist_matrix.shape[0]
    pair_dists = [dist_matrix[i, j] for i in range(m) for j in range(i + 1, m)]
    median = float(np.median(pair_dists))

    def inter_high(group_a):
        in_a = set(group_a)
        count = 0
        for i in range(m):
            for j in range(i + 1, m):
                if (i in in_a) != (j in in_a) and dist_matrix[i, j] > median:
                    count += 1
        return count

    h_obs = inter_high(range(n_a))
    assignments = list(itertools.combinations(range(m), n_a))
    at_least = sum(1 for asg in assignments if inter_high(asg) >= h_obs)
    return h_obs, at_least / len(assignments)


def weighted_mean_coords(coords, masses, members):
    coords = np.asarray(coords, dtype=float)
    masses = np.asarray(masses, dtype=float)
    acc = np.zeros(coords.shape[1])
    total = 0.0
    for i in members:
        acc += masses[i] * coords[i]
        total += masses[i]
    return acc / total


def threshold_filter_bruteforce(token_lists, min_global, min_docs):
    """Term set surviving both thresholds, found by direct counting."""
    terms = sorted({t for toks in token_lists for t in toks})
    kept = set()
    for t in terms:
        gf = sum(toks.count(t) for toks in token_lists)
        dc = sum(1 for toks in token_lists if t in toks)
        if gf >= min_global and dc >= min_docs:
            kept.add(t)
    return kept
