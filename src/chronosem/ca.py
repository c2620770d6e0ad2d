"""Correspondence Analysis of a nonnegative count table.

Counts are normalized to a probability table; row and column profile clouds
under the chi-squared metric are decomposed by SVD of the standardized
residual matrix, giving a shared Euclidean factor space in which profile
distances are preserved.  Supplementary (zero-mass) elements are projected
afterwards through the transition formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, EmptyProfile, ZeroMarginError

# Fraction of the total inertia below which a singular direction is treated
# as the structural null direction rather than a factor.
_TOL_RATIO = 1e-12


@dataclass(frozen=True)
class ProbabilityTable:
    """Counts divided by their grand total, with marginal masses."""

    f: np.ndarray  # (n, p), sums to 1
    row_masses: np.ndarray  # (n,)
    col_masses: np.ndarray  # (p,)

    @property
    def shape(self) -> tuple[int, int]:
        return self.f.shape


@dataclass(frozen=True)
class CAModel:
    """Fitted factor space.

    ``row_coords[i, s]`` and ``col_coords[j, s]`` are the principal
    coordinates of row i and column j on factor s; ``eigenvalues[s]`` is that
    factor's inertia share.  Instances are immutable; projections never
    modify the fitted space.
    """

    eigenvalues: np.ndarray  # (S,), descending
    row_coords: np.ndarray  # (n, S)
    col_coords: np.ndarray  # (p, S)
    row_masses: np.ndarray
    col_masses: np.ndarray
    total_inertia: float

    @property
    def n_factors(self) -> int:
        return len(self.eigenvalues)

    @property
    def percent_inertia(self) -> np.ndarray:
        if self.total_inertia <= 0:
            return np.zeros(0)
        return 100.0 * self.eigenvalues / self.total_inertia


def normalize(counts) -> ProbabilityTable:
    """Divide counts by the grand total and compute marginal masses.

    Accepts a dense array or scipy sparse matrix.  Raises
    :class:`ZeroMarginError` when the grand total, a row sum or a column sum
    is zero.
    """
    # one float table, divided in place; a dense input is copied, never changed
    if sp.issparse(counts):
        f = sp.csr_array(counts, dtype=float).toarray()
    else:
        f = np.array(counts, dtype=float)
    if f.ndim != 2:
        raise ZeroMarginError("count table must be two-dimensional")
    if np.any(f < 0):
        raise ZeroMarginError("count table must be nonnegative")
    grand = f.sum()
    if grand <= 0:
        raise ZeroMarginError("count table has zero grand total")
    f /= grand
    r = f.sum(axis=1)
    c = f.sum(axis=0)
    if np.any(r <= 0):
        raise ZeroMarginError(f"zero row mass at rows {np.flatnonzero(r <= 0).tolist()}")
    if np.any(c <= 0):
        raise ZeroMarginError(
            f"zero column mass at columns {np.flatnonzero(c <= 0).tolist()}"
        )
    return ProbabilityTable(f=f, row_masses=r, col_masses=c)


def chi2_distance(table: ProbabilityTable, i: int, k: int) -> float:
    """Chi-squared distance between row profiles i and k.

    d(i,k) = sqrt( sum_j (1/f_j) (f_ij/f_i - f_kj/f_k)^2 ); zero for
    identical profiles and invariant under rescaling a row's counts.
    """
    diff = table.f[i] / table.row_masses[i] - table.f[k] / table.row_masses[k]
    return float(np.sqrt(np.sum(diff * diff / table.col_masses)))


def total_inertia(table: ProbabilityTable) -> float:
    """Inertia of the profile cloud about its centroid.

    Equals sum_ij (f_ij - f_i f_j)^2 / (f_i f_j) -- the chi-squared
    statistic of the counts divided by their grand total -- and is the same
    whether accumulated over the row cloud or the column cloud.
    """
    expected = np.outer(table.row_masses, table.col_masses)
    resid = table.f - expected
    return float(np.sum(resid * resid / expected))


def standardized_residuals(table: ProbabilityTable) -> np.ndarray:
    """(f_ij - f_i f_j) / sqrt(f_i f_j); its squared Frobenius norm is the
    total inertia.  Formed in two n×p buffers, with the same operations as
    ``(f - expected) / sqrt(expected)``."""
    expected = np.outer(table.row_masses, table.col_masses)
    z = table.f - expected
    z /= np.sqrt(expected, out=expected)
    return z


def decompose(table: ProbabilityTable) -> CAModel:
    """Fit the factor space by SVD of the standardized residual matrix.

    Factors with inertia at or below ``1e-12 * total_inertia`` are
    truncated; at most min(n-1, p-1) factors are kept.  Each factor's sign
    is fixed so its largest-magnitude row coordinate is positive.
    """
    z = standardized_residuals(table)
    inertia = float(np.sum(z * z))
    # relative cutoff, floored at the squared-eps noise scale so a
    # zero-inertia table cannot promote rounding noise to a factor
    noise_floor = (np.finfo(float).eps * max(table.shape)) ** 2
    cutoff = max(_TOL_RATIO * inertia, noise_floor)
    try:
        u, sing, vt = np.linalg.svd(z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed: {exc}") from exc
    if not all(np.isfinite(a).all() for a in (u, sing, vt)):
        raise ConvergenceError("SVD returned a non-finite value")
    del z  # LAPACK worked on its own copy

    n, p = table.shape
    max_rank = max(min(n - 1, p - 1), 0)
    lam = sing**2
    n_keep = int(np.sum(lam > cutoff))
    n_keep = min(n_keep, max_rank)

    lam = lam[:n_keep]
    row_coords = (u[:, :n_keep] * sing[:n_keep]) / np.sqrt(table.row_masses)[:, None]
    col_coords = (vt[:n_keep].T * sing[:n_keep]) / np.sqrt(table.col_masses)[:, None]

    # Deterministic orientation: factor sign follows its dominant row.
    for s in range(n_keep):
        idx = int(np.argmax(np.abs(row_coords[:, s])))
        if row_coords[idx, s] < 0:
            row_coords[:, s] = -row_coords[:, s]
            col_coords[:, s] = -col_coords[:, s]

    model = CAModel(
        eigenvalues=lam,
        row_coords=row_coords,
        col_coords=col_coords,
        row_masses=table.row_masses.copy(),
        col_masses=table.col_masses.copy(),
        total_inertia=inertia,
    )
    for arr in (lam, row_coords, col_coords, model.row_masses, model.col_masses):
        arr.flags.writeable = False
    return model


def fit_ca(counts) -> tuple[ProbabilityTable, CAModel]:
    """Normalize and decompose in one step."""
    table = normalize(counts)
    return table, decompose(table)


def _contributions(masses: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return masses[:, None] * coords**2


def _cos2(coords: np.ndarray) -> np.ndarray:
    sq = coords**2
    denom = sq.sum(axis=1, keepdims=True)
    out = np.zeros_like(sq)
    nz = denom[:, 0] > 0
    out[nz] = sq[nz] / denom[nz]
    return out


def _project(model: CAModel, profile, coords: np.ndarray, what: str) -> np.ndarray:
    """Transition formula: the profile-weighted mean of ``coords`` (the
    other cloud's principal coordinates) scaled by lambda_s^{-1/2}."""
    w = np.asarray(profile, dtype=float).ravel()
    if np.any(w < 0):
        raise EmptyProfile(f"{what}: negative weights are not a profile")
    total = w.sum()
    if total <= 0:
        raise EmptyProfile(f"{what}: all-zero profile")
    if len(w) != len(coords):
        raise EmptyProfile(
            f"{what}: profile length {len(w)} != {len(coords)} principal points"
        )
    return (w / total @ coords) / np.sqrt(model.eigenvalues)


def row_contributions(model: CAModel) -> np.ndarray:
    """Absolute contribution f_i F_s(i)^2 of each row to each factor.

    Columns sum to the corresponding eigenvalue.
    """
    return _contributions(model.row_masses, model.row_coords)


def col_contributions(model: CAModel) -> np.ndarray:
    return _contributions(model.col_masses, model.col_coords)


def row_correlations(model: CAModel) -> np.ndarray:
    """Squared cosine of each row point with each factor axis.

    Rows with zero profile deviation (points at the origin) get all-zero
    correlations; otherwise the values sum to 1 over the factors.
    """
    return _cos2(model.row_coords)


def project_supplementary_row(model: CAModel, profile) -> np.ndarray:
    """Project a zero-mass row into the fitted factor space.

    ``profile`` is a nonnegative weight vector over the principal columns
    (normalized internally).  Coordinates follow the transition formula
    F_s = lambda_s^{-1/2} sum_j h_j G_s(j); a principal row's own profile
    reproduces its fitted coordinates, and the mean profile lands at the
    origin.
    """
    return _project(model, profile, model.col_coords, "supplementary row")


def project_supplementary_col(model: CAModel, profile) -> np.ndarray:
    """Symmetric counterpart over the principal rows."""
    return _project(model, profile, model.row_coords, "supplementary column")


def _cloud(ids: list | None, masses: np.ndarray, coords: np.ndarray) -> dict:
    return {
        "ids": list(ids) if ids is not None else list(range(len(masses))),
        "masses": masses,
        "coords": coords,
        "contributions": _contributions(masses, coords),
        "cos2": _cos2(coords),
    }


def model_export_dict(
    model: CAModel,
    row_ids: list | None = None,
    col_ids: list | None = None,
) -> dict:
    """Summary for ``model.json``: eigenvalues, inertia shares, coordinates,
    contributions and squared cosines for rows and columns.

    Numeric leaves are ndarrays, so a writer can turn one leaf at a time
    into JSON (``.tolist()`` then ``json.dumps``); the rest is JSON-ready.
    """
    pct = model.percent_inertia
    return {
        "n_factors": model.n_factors,
        "total_inertia": model.total_inertia,
        "eigenvalues": model.eigenvalues,
        "percent_inertia": pct,
        "percent_inertia_display": [f"{v:.2f}" for v in pct],
        "rows": _cloud(row_ids, model.row_masses, model.row_coords),
        "cols": _cloud(col_ids, model.col_masses, model.col_coords),
    }
