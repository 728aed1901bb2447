"""Edge reweighting schemes for the aggregation matrix.

Every scheme is one rescaling ``D_l · M · D_r`` by diagonals that
:func:`_diagonals` takes from the out- and in-degrees of ``M``: ``none``
is ``M``, ``row`` is ``D_out^-1 M`` (mean aggregation), ``sym`` is
``D_out^-½ M D_out^-½`` and ``dir`` is ``D_in^-½ M D_out^-½``. A zero
degree inverts to 0, not infinity: nodes with nothing to aggregate get a
zero row, and the result says how many.

:func:`normalize` rescales a count matrix into a :class:`WeightedAdjacency`,
whose ``csr`` reuses the read-only index arrays of the source with new
values, so an entry that a zero degree wiped stays as an explicit zero.
:func:`normalize_power` rescales ``A^k`` into a :class:`PowerAggregation`,
which is never built: its degrees take k sparse products with a vector,
and its ``@`` applies it by k sparse products, as SGC computes ``S^K X``.
Both types offer ``@`` and ``.T``, so one model kernel takes either. Every
product with a dense operand is :func:`graphs._matvecs`, the compiled
kernel that scipy's ``@`` ends in, without its dispatch; the public ``@``
first passes its operand through :func:`_operand`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import matmul

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericError
from .graphs import SparseCountMatrix, _CSRWrapper, _float64_field, _index, _matvecs, _require_square, add_self_loops

__all__ = ["NORM_SCHEMES", "WeightedAdjacency", "PowerAggregation", "normalize", "normalize_power", "gcn_canonical"]

NORM_SCHEMES = ("none", "row", "sym", "dir")


def _operand(x, shape: tuple[int, int]) -> np.ndarray:
    """``x`` as a C-contiguous float64 ``(n_cols,)`` or ``(n_cols, w)`` array for a matrix of ``shape``;
    anything else raises :class:`InputError`."""
    x = _float64_field(x, "operand")
    if x.ndim not in (1, 2) or x.shape[0] != shape[1]:
        raise InputError(f"cannot multiply a {shape[0]}x{shape[1]} matrix by an operand of shape {x.shape}")
    return np.ascontiguousarray(x)


@dataclass(frozen=True, eq=False)
class _Transpose:
    """``Âᵀ`` of a :class:`WeightedAdjacency`: a CSC view over its arrays."""

    csc: sp.csc_matrix

    def __matmul__(self, x):
        return _matvecs(self.csc, _operand(x, self.csc.shape))


@dataclass(frozen=True, eq=False, repr=False)
class WeightedAdjacency(_CSRWrapper):
    """Real-valued CSR matrix on the index arrays of its integer source, explicit zeros kept;
    ``zero_row_count`` says how many rows ended up with no mass."""

    csr: sp.csr_matrix
    scheme: str
    zero_row_count: int

    def __post_init__(self):
        if self.csr.dtype != np.float64 or not np.all(np.isfinite(self.csr.data)):
            raise InputError("weighted adjacency must hold finite float64 values")
        for arr in (self.csr.indptr, self.csr.indices, self.csr.data):
            arr.flags.writeable = False

    def __matmul__(self, x):
        return _matvecs(self.csr, _operand(x, self.csr.shape))

    @property
    def T(self) -> _Transpose:
        """``Âᵀ`` over a CSC view of the arrays of ``csr``: no copy."""
        return _Transpose(self.csr.T)


def _inverse(x: np.ndarray, root: bool) -> np.ndarray:
    """``1 / x``, or ``1 / sqrt(x)`` with ``root``, where ``x > 0``; 0 elsewhere."""
    return np.divide(1.0, np.sqrt(x) if root else x, out=np.zeros(len(x)), where=x > 0)


def _diagonals(scheme: str, out_deg, in_deg) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(d_l, d_r)`` of ``scheme``, None for a diagonal of ones.

    ``out_deg`` and ``in_deg`` return the out- and in-degrees of the matrix
    it rescales, and each is called only if the scheme reads it.
    """
    if scheme not in NORM_SCHEMES:
        raise InputError(f"unknown normalization scheme {scheme!r}")
    if scheme == "row":
        return _inverse(out_deg(), root=False), None
    if scheme == "sym":
        return (_inverse(out_deg(), root=True),) * 2
    if scheme == "dir":
        return _inverse(in_deg(), root=True), _inverse(out_deg(), root=True)
    return None, None


def normalize(a: SparseCountMatrix, scheme: str) -> WeightedAdjacency:
    """Apply one of the four schemes to a walk-count matrix: ``D_l · A · D_r``.

    Rows of the ``row`` result sum to 1 wherever the source row is
    non-empty. Zero-degree factors are defined as 0, so isolated or
    source-less nodes simply aggregate nothing.
    """
    _require_square(a, "normalize")
    m, n = a.csr, a.n_rows
    vals = m.data.astype(np.float64)  # a copy: the counts, then the values in place
    per_row = np.diff(m.indptr)
    rows = np.repeat(np.arange(n), per_row) if scheme != "none" else None
    d_l, d_r = _diagonals(scheme, lambda: np.bincount(rows, weights=vals, minlength=n),
                          lambda: np.bincount(m.indices, weights=vals, minlength=n))
    if d_l is not None:
        vals *= d_l[rows]
    if d_r is not None:
        vals *= d_r[m.indices]
    # no value is negative, so a row has no mass iff its sum is 0; every count is at least 1
    empty = per_row == 0 if rows is None else np.bincount(rows, weights=vals, minlength=n) == 0
    return WeightedAdjacency(sp.csr_matrix((vals, m.indices, m.indptr), shape=m.shape), scheme,
                             int(np.count_nonzero(empty)))


def _walk(m, k: int, x, product=_matvecs):
    """``M^k x`` by k sparse products ``product(M, x)``: by default for a float64 scipy CSR or CSC ``M``
    and a C-contiguous float64 ``x``."""
    for _ in range(k):
        x = product(m, x)
    return x


@dataclass(frozen=True, eq=False)
class PowerAggregation:
    """``D_l · A^k · D_r`` over the float64 ``A`` (CSR, or a CSC view in a transpose), never built.

    ``@`` applies it by k sparse products, ``.T`` is the same operator over
    ``A.T`` with the diagonals swapped, and ``to_scipy`` builds it for
    oracles. ``zero_row_count`` takes k more products, on first read.
    """

    a: sp.spmatrix
    k: int
    d_l: np.ndarray
    d_r: np.ndarray
    scheme: str

    @cached_property
    def zero_row_count(self) -> int:
        # all terms are non-negative and every stored count is at least 1, so this zero test is exact
        return int(np.count_nonzero(self.d_l * _walk(self.a, self.k, self.d_r) == 0))

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]

    def __matmul__(self, x):
        x = _operand(x, self.a.shape)
        col = (-1,) + (1,) * (x.ndim - 1)  # a diagonal scales the rows of a vector or a matrix
        return self.d_l.reshape(col) * _walk(self.a, self.k, self.d_r.reshape(col) * x)

    @property
    def T(self) -> "PowerAggregation":
        return PowerAggregation(self.a.T, self.k, self.d_r, self.d_l, self.scheme)

    def to_scipy(self) -> sp.csr_matrix:
        """The matrix as a new CSR, built by k sparse products."""
        return sp.csr_matrix(sp.diags(self.d_l) @ _walk(self.a, self.k, sp.diags(self.d_r), matmul))


def normalize_power(a: SparseCountMatrix, k: int, scheme: str) -> PowerAggregation:
    """One of the four schemes on ``A^k``, with degrees ``A^k·1`` and ``(Aᵀ)^k·1`` from k products each.

    Every term is non-negative, so a degree is exact up to 2**53, close
    beyond, and not finite only past float64 range: that raises
    :class:`NumericError` naming ``A^k``.
    """
    _require_square(a, "normalize_power")
    k = _index(k, "power", 0)
    m, ones = a.csr.astype(np.float64), np.ones(a.n_rows)
    out_deg, in_deg = _walk(m, k, ones), _walk(m.T, k, ones)
    if not (np.isfinite(out_deg).all() and np.isfinite(in_deg).all()):
        raise NumericError(f"A^{k} leaves float64 range: degree sums are not finite")
    d_l, d_r = (ones if d is None else d for d in _diagonals(scheme, lambda: out_deg, lambda: in_deg))
    return PowerAggregation(m, k, d_l, d_r, scheme)


def gcn_canonical(a: SparseCountMatrix) -> WeightedAdjacency:
    """Self-loops plus symmetric normalization with the looped degrees."""
    return normalize(add_self_loops(a), "sym")
