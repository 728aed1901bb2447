"""Directed multigraphs as integer CSR matrices.

The adjacency matrix is stored in compressed sparse row form with
non-negative integer values: entry ``(i, j)`` counts the parallel edges
from node ``i`` to node ``j``. Matrix powers of this representation count
directed walks, so edge multiplicities are preserved rather than
deduplicated, and adding self-loops is additive (the matrix gains +1 on
every diagonal entry).

All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InputError

__all__ = [
    "SparseCountMatrix",
    "DegreeVector",
    "GraphMeta",
    "from_edge_list",
    "from_dense",
    "add_self_loops",
    "transpose",
    "symmetrize",
    "degrees",
    "graph_meta",
    "read_edge_list",
    "parse_edge_list",
    "parse_edge_pairs",
    "edge_array",
    "content_lines",
]

_TABLE_BLOCK = 1 << 20  # characters of whole lines per block in _int_table
_TABLE_BYTES = np.zeros(256, dtype=bool)  # what _int_table reads: digits, '-', tab, space, newline
_TABLE_BYTES[np.frombuffer(b"0123456789-\t \n", dtype=np.uint8)] = True
_INT64_END = 1 << 63


def _int64_field(values, name: str) -> np.ndarray:
    """``values`` as a read-only contiguous int64 array; floats must be whole numbers within int64."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        ok = np.isfinite(arr) & (arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)
        if not ok.all():
            raise InputError(f"{name} must hold integers, got {arr[~ok][0].item()!r}")
    elif arr.dtype.kind not in "iu":
        raise InputError(f"{name} must hold integers, got {arr.dtype} values")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SparseCountMatrix:
    """CSR matrix over the non-negative integers.

    Invariants (checked on construction):
      * ``row_offsets`` has length ``n_rows + 1``, is non-decreasing and
        ends at ``len(col_indices)``;
      * column indices are strictly increasing within each row;
      * every stored value is positive (no explicit zeros).
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("row_offsets", "col_indices", "values"):
            object.__setattr__(self, name, _int64_field(getattr(self, name), name))
        self._validate()

    def _validate(self):
        ro, ci, v = self.row_offsets, self.col_indices, self.values
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if ro.shape != (self.n_rows + 1,):
            raise InputError("row_offsets must have length n_rows + 1")
        if ro[0] != 0 or ro[-1] != len(ci) or np.any(np.diff(ro) < 0):
            raise InputError("row_offsets must be non-decreasing from 0 to nnz")
        if len(ci) != len(v):
            raise InputError("col_indices and values must have equal length")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.n_cols):
            raise InputError("column index out of range")
        if np.any(v <= 0):
            raise InputError("stored values must be positive")
        # A non-increasing step is a violation unless it crosses into the next row.
        bad = np.diff(ci) <= 0
        starts = ro[1:-1]
        bad[starts[(starts > 0) & (starts < len(ci))] - 1] = False
        if bad.any():
            i = int(np.searchsorted(ro, np.argmax(bad), side="right")) - 1
            raise InputError(f"column indices not strictly increasing in row {i}")

    @property
    def nnz(self) -> int:
        return int(len(self.col_indices))

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i``."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values.copy(), self.col_indices.copy(), self.row_offsets.copy()),
            shape=(self.n_rows, self.n_cols),
        )

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``col_indices``."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        out[self.row_ids(), self.col_indices] = self.values
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseCountMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.col_indices.tobytes(), self.values.tobytes()))

    def __repr__(self):
        return f"SparseCountMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


@dataclass(frozen=True)
class DegreeVector:
    """Per-node degree with edge multiplicity counted."""

    kind: str  # "in" or "out"
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("in", "out"):
            raise InputError(f"degree kind must be 'in' or 'out', got {self.kind!r}")
        object.__setattr__(self, "values", _int64_field(self.values, "degree values"))

    @property
    def total(self) -> int:
        return int(self.values.sum())


@dataclass(frozen=True)
class GraphMeta:
    """Structural flags recomputable from the matrix."""

    n_nodes: int
    has_self_loops: bool
    is_symmetric: bool


def _from_scipy(m: sp.spmatrix) -> SparseCountMatrix:
    m = sp.csr_matrix(m)
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return SparseCountMatrix(
        n_rows=m.shape[0],
        n_cols=m.shape[1],
        row_offsets=m.indptr.astype(np.int64),
        col_indices=m.indices.astype(np.int64),
        values=m.data.astype(np.int64),
    )


def _as_edge_pairs(edges) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` array of integral values; an ndarray is taken as it is."""
    try:
        arr = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    except (TypeError, ValueError) as exc:
        raise InputError(f"edges must be (src, dst) pairs: {exc}") from exc
    if arr.ndim == 1 and len(arr) == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("edges must be (src, dst) pairs")
    if arr.dtype.kind == "f":
        whole = np.isfinite(arr) & (arr == np.trunc(arr))
        if not whole.all():
            bad = arr[~whole.all(axis=1)][0]
            raise InputError(f"non-integer edge endpoint: {tuple(bad.tolist())}")
    elif arr.dtype.kind not in "iu":
        raise InputError(f"edge endpoints must be integers, got {arr.dtype} values")
    return arr


def from_edge_list(edges, n_nodes: int) -> SparseCountMatrix:
    """Build the adjacency matrix of a directed multigraph.

    ``edges`` is an ``(m, 2)`` array or any iterable of ``(src, dst)``
    pairs of integers. Duplicate pairs accumulate into the integer entry,
    so a doubled edge yields value 2.
    """
    try:
        n_nodes = operator.index(n_nodes)
    except TypeError:
        raise InputError(f"n_nodes must be an integer, got {n_nodes!r}") from None
    if n_nodes < 0:
        raise InputError("n_nodes must be non-negative")
    arr = _as_edge_pairs(edges)
    if not len(arr):
        return SparseCountMatrix(n_nodes, n_nodes, np.zeros(n_nodes + 1, dtype=np.int64), [], [])
    if arr.min() < 0 or arr.max() >= n_nodes:
        bad = arr[(arr < 0).any(axis=1) | (arr >= n_nodes).any(axis=1)][0]
        raise InputError(f"edge endpoint out of range for n_nodes={n_nodes}: {tuple(bad.tolist())}")
    arr = arr.astype(np.int64, copy=False)
    data = np.ones(len(arr), dtype=np.int64)
    coo = sp.coo_matrix((data, (arr[:, 0], arr[:, 1])), shape=(n_nodes, n_nodes))
    return _from_scipy(coo)


def from_dense(dense) -> SparseCountMatrix:
    """Adjacency matrix from a dense integer array (test convenience)."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise InputError("dense input must be 2-D")
    if np.any(dense < 0):
        raise InputError("entries must be non-negative")
    return _from_scipy(sp.csr_matrix(dense.astype(np.int64)))


def _require_square(a: SparseCountMatrix, op: str):
    if not a.is_square:
        raise InputError(f"{op} requires a square matrix, got {a.n_rows}x{a.n_cols}")


def add_self_loops(a: SparseCountMatrix) -> SparseCountMatrix:
    """Return the matrix with every diagonal entry incremented by 1."""
    _require_square(a, "add_self_loops")
    return _from_scipy(a.to_scipy() + sp.eye(a.n_rows, dtype=np.int64, format="csr"))


def transpose(a: SparseCountMatrix) -> SparseCountMatrix:
    _require_square(a, "transpose")
    return _from_scipy(a.to_scipy().T)


def symmetrize(a: SparseCountMatrix) -> SparseCountMatrix:
    """Return ``A + A^T`` (values add; a bidirected pair becomes 2)."""
    _require_square(a, "symmetrize")
    m = a.to_scipy()
    return _from_scipy(m + m.T)


def degrees(a: SparseCountMatrix, kind: str) -> DegreeVector:
    """Row value sums (out) or column value sums (in)."""
    _require_square(a, "degrees")
    m = a.to_scipy()
    axis = 1 if kind == "out" else 0
    vals = np.asarray(m.sum(axis=axis)).ravel()
    return DegreeVector(kind=kind, values=vals)


def graph_meta(a: SparseCountMatrix) -> GraphMeta:
    _require_square(a, "graph_meta")
    m = a.to_scipy()
    has_loops = bool(np.any(m.diagonal() > 0))
    sym = (m != m.T).nnz == 0
    return GraphMeta(n_nodes=a.n_rows, has_self_loops=has_loops, is_symmetric=sym)


def content_lines(text: str):
    """Yield ``(lineno, line)`` for every line left non-blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _plain(text: str) -> bool:
    """ASCII without ``_`` or ``+``: there ``int()`` reads exactly the endpoint grammar ``-?[0-9]+``."""
    return text.isascii() and "_" not in text and "+" not in text


def parse_edge_pairs(text: str, where: str = "line ") -> tuple[list[tuple[int, int]], int | None]:
    """The ``(src, dst)`` pairs of an edge-list text and its ``%nodes`` count, None if absent.

    A malformed line raises :class:`InputError` naming it ``{where}{lineno}``.
    """
    strict = not _plain(text)  # only such texts pay for a check per line
    edges: list[tuple[int, int]] = []
    declared = None
    for lineno, line in content_lines(text):
        if line.startswith("%"):
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] != "nodes" or not (parts[1].isascii() and parts[1].isdecimal()):
                raise InputError(f"{where}{lineno}: bad header {line!r}, expected '%nodes N'")
            count = parts[1].lstrip("0") or "0"  # at most 19 digits is cheap for int()
            if len(count) > 19 or int(count) >= _INT64_END:
                raise InputError(f"{where}{lineno}: node count outside the 64-bit integer range in {line!r}")
            declared = int(count)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{where}{lineno}: expected 'src<TAB>dst', got {line!r}")
        try:
            if strict and not _plain(line):
                raise ValueError("outside the endpoint grammar")
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"{where}{lineno}: non-integer endpoint in {line!r}") from exc
    return edges, declared


def _int_table(text: str, width: int) -> np.ndarray | None:
    """The ``(rows, width)`` int64 table of a text of plain integer lines, or None.

    The text is read a block of about ``_TABLE_BLOCK`` characters of whole
    lines at a time. A block holds only ASCII digits, ``-``, tabs, spaces
    and newlines, and each of its lines is blank or has exactly ``width``
    tokens; there numpy's conversion is ``int()`` on ``-?[0-9]+``, so a
    token such as ``1-2`` or one outside int64 fails it. Anything else (a
    comment, ``\\r``, ``_``, ``+``, non-ASCII text, a ragged line) gives
    None and leaves the text to the line grammar, which names the line.
    """
    rows, lo = [], 0
    while lo < len(text):
        hi = text.find("\n", lo + _TABLE_BLOCK - 1) + 1 or len(text)
        block, lo = text[lo:hi], hi
        if not block.isascii():
            return None
        b = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
        if not _TABLE_BYTES[b].all():
            return None
        start = b > 32  # a digit or '-' after a tab, space, newline or the block's start
        start[1:] &= b[:-1] <= 32
        per_line = np.bincount(np.cumsum(b == 10, dtype=np.int32)[start])
        if not ((per_line == 0) | (per_line == width)).all():
            return None
        try:
            rows.append(np.array(block.split(), dtype=np.int64))
        except (ValueError, OverflowError):
            return None
    return np.concatenate(rows or [np.zeros(0, dtype=np.int64)]).reshape(-1, width)


def edge_array(text: str, where: str = "line ") -> tuple[np.ndarray, int | None]:
    """The ``(m, 2)`` int64 endpoints of an edge-list text and its ``%nodes`` count, None if absent.

    A text of plain ``src<TAB>dst`` lines, after at most an exact ``%nodes N``
    first line, is read in one numpy pass (:func:`_int_table`); any other
    text goes through :func:`parse_edge_pairs`, so a malformed line raises
    :class:`InputError` naming it ``{where}{lineno}``. An endpoint outside
    int64 is an :class:`InputError` too.
    """
    head, _, rest = text.partition("\n")
    count = head[7:] if head.startswith("%nodes ") else ""
    declared = int(count) if count.isascii() and count.isdecimal() and len(count) < 20 else None
    if declared is None or declared >= _INT64_END:
        declared, rest = None, text
    edges = _int_table(rest, 2)
    if edges is not None:
        return edges, declared
    pairs, declared = parse_edge_pairs(text, where)
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2), declared
    except OverflowError:
        # no line to name: a file prefix stands for the whole text
        prefix = f"{where[:-1]}: " if where.endswith(":") else ""
        raise InputError(f"{prefix}node id outside the 64-bit integer range") from None


def parse_edge_list(text: str, n_nodes: int | None = None, dedup: bool = False) -> SparseCountMatrix:
    """Parse the tab-separated edge-list format.

    One ``src<TAB>dst`` pair per line; ``#`` starts a comment; an optional
    ``%nodes N`` header fixes the node count, which is otherwise inferred
    as ``max endpoint + 1``. With ``dedup``, repeated pairs collapse to a
    single unit edge. A text of plain integer lines under at most an exact
    ``%nodes N`` first line is read in one numpy pass; any other text goes
    through the line grammar, and its errors still name ``line N``.
    """
    edges, declared = edge_array(text)
    if n_nodes is None:
        n_nodes = declared
    if n_nodes is None:
        n_nodes = int(edges.max()) + 1 if len(edges) else 0
    if dedup:
        edges = np.unique(edges, axis=0)
    return from_edge_list(edges, n_nodes)


def read_edge_list(path: str | os.PathLike, n_nodes: int | None = None, dedup: bool = False) -> SparseCountMatrix:
    """Load a graph from an edge-list text file (see :func:`parse_edge_list`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read edge list {path}: {exc}") from exc
    return parse_edge_list(text, n_nodes=n_nodes, dedup=dedup)
