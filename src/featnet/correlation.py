"""Spearman rank correlation and the derived distance / similarity matrices.

The three transforms chain together: rank correlation rho in [-1, 1], then
distance d = sqrt(2 * (1 - rho)) in [0, 2], then similarity exp(-d) in
[exp(-2), 1].  Each step is exposed separately so intermediate matrices can
be exported and audited.

Spearman is computed from one Gram matrix G = C.T @ C of the centered
ranks C, which serves both correlation modes; one call ranks every column
from its code counts.  G is exact: tie-averaged ranks are half-integers and
every column's mean is (n+1)/2, so each centered value is a multiple of 1/2
and each product and partial sum a multiple of 1/4.  By Cauchy-Schwarz no
partial sum exceeds n(n^2-1)/12 in magnitude, so every one is an exact
float64 whatever order the matrix product sums in, for n up to about 3.0e5
rows; the literal formula's sum of squared rank differences, up to
n(n^2-1)/3, is exact for n up to about 1.9e5.
"""

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import FeatureTable, _write_csv
from .errors import TooFewRows

CORRELATION_MODES = ("tie_aware", "literal_formula")


class CorrelationMatrix(NamedTuple):
    """A feature-by-feature matrix: Spearman correlations, or the distances
    or similarities derived from them.  ``warnings`` describes the
    correlation it derives from."""

    feature_names: tuple[str, ...]
    values: np.ndarray
    # (feature, reason) for columns whose correlations were forced to 0
    warnings: tuple[tuple[str, str], ...] = ()


def rank_transform(values) -> np.ndarray:
    """Fractional ranks (1-based) of each column, a 1-D array being one column.

    One ``bincount`` counts every column's codes, offset by column, and the c
    ties ending at sorted position e share the exact rank e - (c-1)/2.  Codes
    that are not integers less than n apart are first recoded densely, in order.
    """
    x = np.asarray(values)
    if x.size == 0:
        raise TooFewRows("cannot rank an empty column")
    cols = x.reshape(len(x), -1)
    n, k = cols.shape
    lo, hi = (int(cols.min()), int(cols.max())) if x.dtype.kind in "iu" else (0, n)  # non-integers recode
    if hi - lo >= n or lo < -(2**53) or hi > 2**53:  # past n, or inexact in float64
        dense = np.unique(cols.astype(np.float64), return_inverse=True)[1].reshape(n, k)
        cols = np.unique(dense + np.arange(k) * x.size, return_inverse=True)[1].reshape(n, k)
        cols, lo, hi = cols - cols.min(axis=0), 0, n - 1  # dense within each column
    keys = np.add(cols, np.arange(k) * (hi - lo + 1) - lo, dtype=np.int64)
    counts = np.bincount(keys.ravel(), minlength=k * (hi - lo + 1)).reshape(k, -1)
    return (counts.cumsum(axis=1) - (counts - 1) / 2).ravel().take(keys).reshape(x.shape)


def spearman_matrix(table: FeatureTable, mode: str = "tie_aware") -> CorrelationMatrix:
    """Feature-by-feature Spearman correlation matrix.

    tie_aware (default) computes the Pearson correlation of tie-averaged
    ranks, the standard tie-corrected Spearman.  literal_formula applies the
    classical 1 - 6*sum(d^2) / (n*(n^2-1)) to the same ranks; the two agree
    when no ties are present.  Both read the Gram matrix of centered ranks
    (exact, see the module docstring): sum(d^2) for columns i, j is
    G[i,i] + G[j,j] - 2*G[i,j].  Constant columns cannot be rank-correlated:
    their off-diagonal entries are set to 0 and the column is recorded in
    ``warnings`` instead of being dropped, so the feature set stays stable
    across data partitions.
    """
    if mode not in CORRELATION_MODES:
        raise ValueError(f"mode must be one of {CORRELATION_MODES}, got {mode!r}")
    n = table.n_rows
    k = table.n_features
    if n < 2:
        raise TooFewRows(f"need at least 2 rows to correlate, got {n}")
    if k < 2:
        raise ValueError(f"need at least 2 features to correlate, got {k}")

    centered = rank_transform(table.rows) - (n + 1) / 2.0
    gram = centered.T @ centered
    sum_sq = np.diag(gram)
    degenerate = sum_sq <= 0.0

    if mode == "tie_aware":
        # constant columns are zeroed below; a unit scale keeps 0/0 out
        scale = np.where(degenerate, 1.0, sum_sq)
        values = gram / np.sqrt(np.outer(scale, scale))
    else:
        sum_d2 = sum_sq[:, None] + sum_sq[None, :] - 2.0 * gram
        values = 1.0 - 6.0 * sum_d2 / (n * (n * n - 1.0))
    np.clip(values, -1.0, 1.0, out=values)
    values[degenerate, :] = 0.0
    values[:, degenerate] = 0.0
    np.fill_diagonal(values, 1.0)

    warnings = tuple(
        (table.feature_names[j], "constant column, correlations set to 0")
        for j in np.flatnonzero(degenerate)
    )
    values.flags.writeable = False
    return CorrelationMatrix(
        feature_names=table.feature_names,
        values=values,
        warnings=warnings,
    )


def to_distance(corr: CorrelationMatrix) -> CorrelationMatrix:
    """d = sqrt(2 * (1 - rho)) elementwise; float-error radicands clamp to 0."""
    values = np.sqrt(np.maximum(2.0 * (1.0 - corr.values), 0.0))
    values.flags.writeable = False
    return corr._replace(values=values)


def to_similarity(dist: CorrelationMatrix) -> CorrelationMatrix:
    """s = exp(-d) elementwise, mapping d in [0, 2] onto [exp(-2), 1]."""
    values = np.exp(-dist.values)
    values.flags.writeable = False
    return dist._replace(values=values)


def write_matrix_csv(matrix: CorrelationMatrix, path: str | Path) -> None:
    """Export a named square matrix with full-precision (repr) floats."""
    names = matrix.feature_names
    rows = ([name, *row] for name, row in zip(names, matrix.values.tolist()))
    _write_csv(path, ["", *names], rows)
