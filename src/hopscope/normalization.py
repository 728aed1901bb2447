"""Edge reweighting schemes for the aggregation matrix.

Four schemes: ``none`` keeps raw counts, ``row`` divides each row by its
own sum (mean aggregation), ``sym`` scales entry (i, j) by
``1/sqrt(d_i d_j)`` with d the row sums, and ``dir`` scales by
``1/sqrt(in_i out_j)``. Degrees are always taken from the matrix being
normalized, so a powered matrix is normalized by its own row/column
sums. A zero degree inverts to 0 rather than infinity: nodes with
nothing to aggregate get a zero row, and the result reports how many.

The result is a :class:`WeightedAdjacency`, the float64 member of the
one CSR idiom of :mod:`hopscope.graphs`: its ``csr`` reuses the read-only
index arrays of the count matrix with new values, so an entry that a zero
degree wiped stays as an explicit zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graphs import SparseCountMatrix, _CSRWrapper, add_self_loops

__all__ = ["NORM_SCHEMES", "WeightedAdjacency", "normalize", "gcn_canonical"]

NORM_SCHEMES = ("none", "row", "sym", "dir")


@dataclass(frozen=True, eq=False, repr=False)
class WeightedAdjacency(_CSRWrapper):
    """Real-valued CSR matrix on the index arrays of its integer source, explicit zeros kept;
    ``zero_row_count`` says how many rows ended up with no mass."""

    csr: sp.csr_matrix
    scheme: str
    zero_row_count: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.csr.data)):
            raise InputError("weighted adjacency must be finite")
        for arr in (self.csr.indptr, self.csr.indices, self.csr.data):
            arr.flags.writeable = False


def _inv_sqrt(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = 1.0 / np.sqrt(x[pos])
    return out


def normalize(a: SparseCountMatrix, scheme: str) -> WeightedAdjacency:
    """Apply one of the four schemes to a count matrix.

    Rows of the ``row`` result sum to 1 wherever the source row is
    non-empty. Zero-degree factors are defined as 0, so isolated or
    source-less nodes simply aggregate nothing.
    """
    if scheme not in NORM_SCHEMES:
        raise InputError(f"unknown normalization scheme {scheme!r}")
    if not a.is_square:
        raise InputError("normalize requires a square matrix")
    m = a.csr
    counts = m.data.astype(np.float64)
    weights = sp.csr_matrix((counts, m.indices, m.indptr), shape=m.shape)
    out_deg, in_deg = (np.asarray(weights.sum(axis=axis)).ravel() for axis in (1, 0))
    rows = np.repeat(np.arange(a.n_rows), np.diff(m.indptr))
    cols = m.indices

    if scheme == "none":
        vals = counts
    elif scheme == "row":
        inv = np.zeros_like(out_deg)
        nz = out_deg > 0
        inv[nz] = 1.0 / out_deg[nz]
        vals = counts * inv[rows]
    elif scheme == "sym":
        f = _inv_sqrt(out_deg)
        vals = counts * f[rows] * f[cols]
    else:  # dir
        fi = _inv_sqrt(in_deg)
        fo = _inv_sqrt(out_deg)
        vals = counts * fi[rows] * fo[cols]

    row_mass = np.zeros(a.n_rows)
    np.add.at(row_mass, rows, np.abs(vals))
    zero_rows = int(np.count_nonzero(row_mass == 0))
    return WeightedAdjacency(sp.csr_matrix((vals, m.indices, m.indptr), shape=m.shape), scheme, zero_rows)


def gcn_canonical(a: SparseCountMatrix) -> WeightedAdjacency:
    """Self-loops plus symmetric normalization with the looped degrees."""
    if not a.is_square:
        raise InputError("gcn_canonical requires a square matrix")
    return normalize(add_self_loops(a), "sym")
