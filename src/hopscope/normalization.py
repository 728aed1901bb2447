"""Edge reweighting schemes for the aggregation matrix.

Every scheme is one rescaling ``D_l · A · D_r`` by diagonals taken from
the degrees of the matrix being normalized (a powered matrix by its own
row and column sums): ``none`` is ``A``, ``row`` is ``D_out^-1 A`` (mean
aggregation), ``sym`` is ``D_out^-½ A D_out^-½`` and ``dir`` is
``D_in^-½ A D_out^-½``. A zero degree inverts to 0, not infinity: nodes
with nothing to aggregate get a zero row, and the result says how many.
The matrix is a count matrix or a float64 power off
:func:`hopscope.hops.float_powers`; degree sums that are not finite
raise :class:`~hopscope.errors.NumericError`.

The result is a :class:`WeightedAdjacency`, the float64 member of the
one CSR idiom of :mod:`hopscope.graphs`: its ``csr`` reuses the read-only
index arrays of the source matrix with new values, so an entry that a zero
degree wiped stays as an explicit zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericError
from .graphs import SparseCountMatrix, _CSRWrapper, add_self_loops
from .hops import FloatCountMatrix

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


def _inverse(x: np.ndarray, root: bool) -> np.ndarray:
    """``1 / x``, or ``1 / sqrt(x)`` with ``root``, where ``x > 0``; 0 elsewhere."""
    return np.divide(1.0, np.sqrt(x) if root else x, out=np.zeros(len(x)), where=x > 0)


@np.errstate(over="ignore")  # a degree sum past float64 range is caught below
def normalize(a: SparseCountMatrix | FloatCountMatrix, scheme: str) -> WeightedAdjacency:
    """Apply one of the four schemes to a walk-count matrix: ``D_l · A · D_r``.

    Rows of the ``row`` result sum to 1 wherever the source row is
    non-empty. Zero-degree factors are defined as 0, so isolated or
    source-less nodes simply aggregate nothing. An out- or in-degree that
    is not finite (an infinite entry, or a sum past float64 range) raises
    :class:`NumericError` for every scheme.
    """
    if scheme not in NORM_SCHEMES:
        raise InputError(f"unknown normalization scheme {scheme!r}")
    if not a.is_square:
        raise InputError("normalize requires a square matrix")
    m, n = a.csr, a.n_rows
    counts = m.data.astype(np.float64, copy=False)
    sizes = np.diff(m.indptr)
    rows = np.repeat(np.arange(n), sizes)
    # rows sum pairwise, as scipy's sum(axis=1) does: past 2**53 a sequential bincount rounds differently
    out_deg, in_deg = np.zeros(n), np.bincount(m.indices, weights=counts, minlength=n)
    out_deg[sizes > 0] = np.add.reduceat(counts, m.indptr[:-1][sizes > 0])
    if not (np.isfinite(out_deg).all() and np.isfinite(in_deg).all()):
        raise NumericError("degree sums are not finite")
    d_l = d_r = np.ones(n)
    if scheme == "row":
        d_l = _inverse(out_deg, root=False)
    elif scheme == "sym":
        d_l = d_r = _inverse(out_deg, root=True)
    elif scheme == "dir":
        d_l, d_r = _inverse(in_deg, root=True), _inverse(out_deg, root=True)
    vals = counts * d_l[rows] * d_r[m.indices]
    zero_rows = int(np.count_nonzero(np.bincount(rows, weights=np.abs(vals), minlength=n) == 0))
    return WeightedAdjacency(sp.csr_matrix((vals, m.indices, m.indptr), shape=m.shape), scheme, zero_rows)


def gcn_canonical(a: SparseCountMatrix) -> WeightedAdjacency:
    """Self-loops plus symmetric normalization with the looped degrees."""
    if not a.is_square:
        raise InputError("gcn_canonical requires a square matrix")
    return normalize(add_self_loops(a), "sym")
