"""Correspondence Analysis of a nonnegative count table.

Counts are normalized to a probability table; row and column profile clouds
under the chi-squared metric are decomposed by SVD of the standardized
residual matrix, giving a shared Euclidean factor space in which profile
distances are preserved.  Supplementary (zero-mass) rows are projected
afterwards through the transition formula.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, EmptyProfile, TableTooLarge, ZeroMarginError

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
]

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
        return 100.0 * self.eigenvalues / self.total_inertia


def normalize(counts) -> ProbabilityTable:
    """Divide counts by the grand total and compute marginal masses.

    Accepts a dense array in any memory layout or a scipy sparse one,
    alike to the bit; this is the one place a count table becomes dense.
    Raises :class:`ZeroMarginError` when the grand total, a row sum or a
    column sum is zero.
    """
    if np.ndim(counts) != 2:
        raise ZeroMarginError("count table must be two-dimensional")
    # one float table, in C order whatever the input's layout, divided in place
    f = sp.csr_array(counts, dtype=float).toarray()
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


def decompose(table: ProbabilityTable) -> CAModel:
    """Fit the factor space by SVD of the standardized residuals
    (f_ij - f_i f_j) / sqrt(f_i f_j), whose squared Frobenius norm is the
    total inertia.  They are formed in ``table.f``'s own buffer, so the
    table is spent by the fit; call :func:`normalize` again to read the
    probabilities.

    Factors with inertia at or below ``1e-12 * total_inertia`` are
    truncated; at most min(n-1, p-1) factors are kept.  Each factor's sign
    is fixed so its largest-magnitude row coordinate is positive.
    """
    expected = np.outer(table.row_masses, table.col_masses)
    z = table.f  # (f - expected) / sqrt(expected), the same operations in place
    z -= expected
    z /= np.sqrt(expected, out=expected)
    del expected  # only the residual table is held through the SVD
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

    n, p = table.shape
    max_rank = min(n - 1, p - 1)
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
        row_masses=table.row_masses,
        col_masses=table.col_masses,
        total_inertia=inertia,
    )
    for arr in (lam, row_coords, col_coords, model.row_masses, model.col_masses):
        arr.flags.writeable = False
    return model


def fit_ca(counts) -> CAModel:
    """Normalize and decompose in one step; ``counts`` is left unchanged."""
    try:
        return decompose(normalize(counts))
    except MemoryError as exc:
        raise TableTooLarge(f"count table of shape {np.shape(counts)}: {exc}") from exc


def _contributions(masses: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return masses[:, None] * coords**2


def _cos2(masses: np.ndarray, coords: np.ndarray) -> np.ndarray:
    sq = coords**2
    denom = sq.sum(axis=1, keepdims=True)
    return np.divide(sq, denom, out=sq, where=denom > 0)  # a zero row stays zero


def row_contributions(model: CAModel) -> np.ndarray:
    """Absolute contribution f_i F_s(i)^2 of each row to each factor.

    Columns sum to the corresponding eigenvalue.
    """
    return _contributions(model.row_masses, model.row_coords)


def project_supplementary_row(model: CAModel, profile) -> np.ndarray:
    """Project a zero-mass row into the fitted factor space.

    ``profile`` is a nonnegative weight vector over the principal columns
    (normalized internally).  Coordinates follow the transition formula
    F_s = lambda_s^{-1/2} sum_j h_j G_s(j); a principal row's own profile
    reproduces its fitted coordinates, and the mean profile lands at the
    origin.
    """
    w = np.asarray(profile, dtype=float).ravel()
    if np.any(w < 0):
        raise EmptyProfile("supplementary row: negative weights are not a profile")
    total = w.sum()
    if total <= 0:
        raise EmptyProfile("supplementary row: all-zero profile")
    if len(w) != len(model.col_coords):
        raise EmptyProfile(
            f"supplementary row: profile length {len(w)} != "
            f"{len(model.col_coords)} principal points"
        )
    return (w / total @ model.col_coords) / np.sqrt(model.eigenvalues)


@dataclass(frozen=True)
class _RowBlocks:
    """The table ``form(masses, coords)``, formed for the rows sliced."""

    form: Callable[[np.ndarray, np.ndarray], np.ndarray]
    masses: np.ndarray
    coords: np.ndarray
    ndim, dtype = 2, np.dtype(float)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b, _ = rows.indices(len(self))
        # numpy sums a lone row pairwise but a column-major table's rows one
        # column at a time, so a lone row is formed with a neighbour
        lo = min(a, max(len(self) - 2, 0))
        window = slice(lo, max(b, lo + 2))
        return self.form(self.masses[window], self.coords[window])[a - lo : b - lo]


def _cloud(ids: list, masses: np.ndarray, coords: np.ndarray) -> dict:
    return {
        "ids": list(ids),
        "masses": masses,
        "coords": coords,
        "contributions": _RowBlocks(_contributions, masses, coords),
        "cos2": _RowBlocks(_cos2, masses, coords),
    }


def model_export_dict(model: CAModel, row_ids: list, col_ids: list) -> dict:
    """Summary for ``model.json``: eigenvalues, inertia shares, coordinates,
    contributions and squared cosines for rows and columns, each cloud
    under its ``ids``.

    Each cloud's ``contributions`` (``masses[:, None] * coords**2``) and
    ``cos2`` (each squared row over its sum; a zero row stays zero) form
    only the rows sliced from them (``leaf[a:b]``, bit for bit the whole
    table's rows; ``leaf[:]`` is the table), so a writer forms one block
    at a time and the export holds no table.  The other numeric leaves are
    ndarrays and the rest is JSON-ready.
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
