"""Directed multigraphs as integer CSR matrices.

The adjacency matrix is stored in compressed sparse row form with
non-negative integer values: entry ``(i, j)`` counts the parallel edges
from node ``i`` to node ``j``. Matrix powers of this representation count
directed walks, so edge multiplicities are preserved rather than
deduplicated, and adding self-loops is additive (the matrix gains +1 on
every diagonal entry). A sum that would leave int64 raises
:class:`~hopscope.errors.CountOverflowError` instead of wrapping.

Count, weighted and pattern matrices are one idiom, :class:`_CSRWrapper`:
a frozen dataclass around one scipy CSR matrix with read-only arrays, which
scipy reads with no copy. A scipy result becomes canonical (sorted indices,
no repeats, no explicit zeros) once, in :func:`_canonical`.

Every outside value, in any module, passes one check here, and a bad one
raises :class:`~hopscope.errors.InputError` instead of being cut or wrapped:
:func:`_index` an integer setting, :func:`_real` a real one, :func:`_int64_field`
an index or count array (whole numbers within int64, copied read-only; an
edge table takes its test :func:`_whole` with no copy), :func:`_labels` one
integer-dtype class id per node, :func:`_float64_field` a real array.

All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import numbers
import operator
import os
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .errors import CountOverflowError, InputError

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
_INT64_END = 1 << 63


def _array(values, name: str, kinds: str, what: str) -> np.ndarray:
    """``values`` as an ndarray, not copied, of a dtype kind in ``kinds``; anything else raises :class:`InputError`."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged nested list
        raise InputError(f"{name} must form a regular array: {exc}") from None
    if arr.dtype.kind not in kinds:
        raise InputError(f"{name} must hold {what}, got {arr.dtype} values")
    return arr


def _whole(values, name: str) -> np.ndarray:
    """``values`` as an ndarray, not copied, once each is a whole number within int64 (floats and uint64 are read)."""
    arr = _array(values, name, "iuf", "integers")
    if arr.dtype.kind == "f" or arr.dtype == np.uint64:
        ok = (arr == np.trunc(arr)) & (np.abs(arr) < _INT64_END)  # a nan or an infinity fails too
        if not ok.all():
            raise InputError(f"{name} must hold integers, got {arr[~ok][0].item()!r}")
    return arr


def _int64_field(values, name: str) -> np.ndarray:
    """A read-only contiguous int64 copy of ``values``, which :func:`_whole` checks."""
    arr = np.array(_whole(values, name), dtype=np.int64, order="C")
    arr.flags.writeable = False
    return arr


def _labels(labels, n: int) -> np.ndarray:
    """``labels`` as int64, checked to be one non-negative integer class per node of n."""
    arr = np.asarray(labels)
    if arr.shape != (n,) or arr.dtype.kind not in "iu":
        raise InputError(f"labels must be one integer class per node, shape ({n},), got {arr.dtype} {arr.shape}")
    arr = arr.astype(np.int64, copy=False)
    if n and arr.min() < 0:
        raise InputError(f"class ids must be non-negative int64 values, got {arr.min()}")
    return arr


def _float64_field(values, name: str) -> np.ndarray:
    """``values`` as float64, not copied when they already are; only bool, integer and float arrays."""
    return _array(values, name, "biuf", "real numbers").astype(np.float64, copy=False)


def _exact_total(values: np.ndarray) -> int:
    """The sum of non-negative int64 ``values`` as a Python int, exact past int64."""
    if values.sum(dtype=np.float64) < 2.0**62:  # off by far less than 2**62, so the int64 sum cannot wrap
        return int(values.sum())
    return sum(values.tolist())


def _canonical(m, dtype) -> sp.csr_matrix:
    """A scipy matrix as canonical CSR of ``dtype`` with read-only arrays.

    Canonical: sorted column indices without repeats and no explicit zeros.
    A matrix that already is canonical keeps its arrays; one that is not and
    whose arrays are read-only is copied before it is fixed.
    """
    m = sp.csr_matrix(m, dtype=dtype)
    if not (m.has_canonical_format and m.data.all()):
        if not all(arr.flags.writeable for arr in (m.indptr, m.indices, m.data)):
            m = m.copy()
        m.sum_duplicates()
        m.eliminate_zeros()
    for arr in (m.indptr, m.indices, m.data):
        arr.flags.writeable = False
    return m


def _index(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int from ``low`` up to ``high`` (no bound if None); anything else raises :class:`InputError`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise InputError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{name} must be at most {high}, got {value}")
    return value


def _real(value, name: str):
    """``value`` itself if it is a real number; anything else raises :class:`InputError`."""
    if not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    return value


def _as_int64(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only int64 array: itself, or a widened copy."""
    arr = arr.astype(np.int64, copy=False)
    arr.flags.writeable = False
    return arr


class _CSRWrapper:
    """Base of the count, weighted and pattern matrices: one scipy CSR ``csr`` with read-only arrays.

    scipy's in-place calls raise on ``csr``; its products, transposes, sums
    and slices read it as it is. The index dtype is the one scipy chose;
    ``row_offsets`` and ``col_indices`` widen it to int64, and so does the
    hash. Wrappers compare by type, shape, arrays and their other fields.
    """

    csr: sp.csr_matrix
    _dtype = np.int64

    @classmethod
    def _of(cls, m):
        """A fresh scipy result made canonical once and wrapped."""
        self = object.__new__(cls)
        object.__setattr__(self, "csr", _canonical(m, cls._dtype))
        return self

    @property
    def n_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self.csr.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @property
    def row_offsets(self) -> np.ndarray:
        return _as_int64(self.csr.indptr)

    @property
    def col_indices(self) -> np.ndarray:
        return _as_int64(self.csr.indices)

    @property
    def values(self) -> np.ndarray:
        return self.csr.data

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i``."""
        m = self.csr
        lo, hi = m.indptr[i], m.indptr[i + 1]
        return m.indices[lo:hi], m.data[lo:hi]

    def to_scipy(self) -> sp.csr_matrix:
        """A new scipy matrix over the same read-only arrays."""
        return sp.csr_matrix(self.csr)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "csr")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.csr, other.csr
        return a.shape == b.shape and self._fields() == other._fields() and all(
            np.array_equal(getattr(a, name), getattr(b, name)) for name in ("indptr", "indices", "data"))

    def __hash__(self):
        structure = self.row_offsets.tobytes(), self.col_indices.tobytes()
        return hash((type(self), self.csr.shape, self._fields(), *structure))

    def __repr__(self):
        return f"{type(self).__name__}({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


@dataclass(frozen=True, eq=False, repr=False, init=False)
class SparseCountMatrix(_CSRWrapper):
    """CSR matrix over the non-negative integers.

    The public constructor checks its arrays:
      * ``row_offsets`` has length ``n_rows + 1``, is non-decreasing and
        ends at ``len(col_indices)``;
      * column indices are strictly increasing within each row;
      * every stored value is positive (no explicit zeros).
    """

    csr: sp.csr_matrix

    def __init__(self, n_rows: int, n_cols: int, row_offsets, col_indices, values):
        ro, ci, v = (_int64_field(arr, name) for arr, name in (
            (row_offsets, "row_offsets"), (col_indices, "col_indices"), (values, "values")))
        _validate(n_rows, n_cols, ro, ci, v)
        m = sp.csr_matrix((v, ci, ro), shape=(n_rows, n_cols))
        object.__setattr__(self, "csr", _canonical(m, np.int64))


def _validate(n_rows, n_cols, ro, ci, v):
    n_rows, n_cols = _index(n_rows, "n_rows", 0), _index(n_cols, "n_cols", 0)
    if ro.shape != (n_rows + 1,):
        raise InputError("row_offsets must have length n_rows + 1")
    if ro[0] != 0 or ro[-1] != len(ci) or np.any(np.diff(ro) < 0):
        raise InputError("row_offsets must be non-decreasing from 0 to nnz")
    if len(ci) != len(v):
        raise InputError("col_indices and values must have equal length")
    if len(ci) and (ci.min() < 0 or ci.max() >= n_cols):
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
        return _exact_total(self.values)


@dataclass(frozen=True)
class GraphMeta:
    """Structural flags recomputable from the matrix."""

    n_nodes: int
    has_self_loops: bool
    is_symmetric: bool


def _as_edge_pairs(edges) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` array that :func:`_whole` passes; an ndarray is taken as it is."""
    try:
        arr = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    except (TypeError, ValueError) as exc:
        raise InputError(f"edges must be (src, dst) pairs: {exc}") from exc
    if arr.ndim == 1 and len(arr) == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("edges must be (src, dst) pairs")
    return _whole(arr, "edge endpoints")


def from_edge_list(edges, n_nodes: int) -> SparseCountMatrix:
    """Build the adjacency matrix of a directed multigraph.

    ``edges`` is an ``(m, 2)`` array or any iterable of ``(src, dst)``
    pairs of integers. Duplicate pairs accumulate into the integer entry,
    so a doubled edge yields value 2.
    """
    n_nodes = _index(n_nodes, "n_nodes", 0)
    arr = _as_edge_pairs(edges)
    if len(arr) and (arr.min() < 0 or arr.max() >= n_nodes):
        bad = arr[(arr < 0).any(axis=1) | (arr >= n_nodes).any(axis=1)][0]
        raise InputError(f"edge endpoint out of range for n_nodes={n_nodes}: {tuple(bad.tolist())}")
    arr = arr.astype(np.int64, copy=False)
    data = np.ones(len(arr), dtype=np.int64)
    return SparseCountMatrix._of(sp.coo_matrix((data, (arr[:, 0], arr[:, 1])), shape=(n_nodes, n_nodes)))


def from_dense(dense) -> SparseCountMatrix:
    """Adjacency matrix from a dense integer array (test convenience)."""
    dense = _int64_field(dense, "entries")
    if dense.ndim != 2:
        raise InputError("dense input must be 2-D")
    if np.any(dense < 0):
        raise InputError("entries must be non-negative")
    return SparseCountMatrix._of(sp.csr_matrix(dense))


def _require_square(a: SparseCountMatrix, op: str):
    if not a.is_square:
        raise InputError(f"{op} requires a square matrix, got {a.n_rows}x{a.n_cols}")


def _count_sum(x: sp.csr_matrix, y) -> SparseCountMatrix:
    """``x + y`` over non-negative int64 counts; an entry outside int64 raises instead of wrapping."""
    m = x + y
    wrapped = np.flatnonzero(m.data < 0)  # two counts below 2**63 sum below 2**64: a wrapped sum is negative
    if len(wrapped):
        k = int(wrapped[0])
        i = int(np.searchsorted(m.indptr, k, side="right")) - 1
        raise CountOverflowError(f"count at ({i}, {m.indices[k]}) exceeds 64-bit range ({int(m.data[k]) + 2**64})")
    return SparseCountMatrix._of(m)


def add_self_loops(a: SparseCountMatrix) -> SparseCountMatrix:
    """Return the matrix with every diagonal entry incremented by 1."""
    _require_square(a, "add_self_loops")
    return _count_sum(a.csr, sp.eye(a.n_rows, dtype=np.int64, format="csr"))


def transpose(a: SparseCountMatrix) -> SparseCountMatrix:
    _require_square(a, "transpose")
    return SparseCountMatrix._of(a.csr.T)


def symmetrize(a: SparseCountMatrix) -> SparseCountMatrix:
    """Return ``A + A^T`` (values add; a bidirected pair becomes 2)."""
    _require_square(a, "symmetrize")
    return _count_sum(a.csr, a.csr.T)


def degrees(a: SparseCountMatrix, kind: str) -> DegreeVector:
    """Row value sums (out) or column value sums (in); a sum outside int64 raises instead of wrapping."""
    _require_square(a, "degrees")
    m = a.csr
    ids = np.repeat(np.arange(a.n_rows), np.diff(m.indptr)) if kind == "out" else m.indices
    for i in np.flatnonzero(np.bincount(ids, weights=m.data, minlength=a.n_rows) >= 2.0**62).tolist():
        total = sum(m.data[ids == i].tolist())
        if total >= _INT64_END:
            raise CountOverflowError(f"{kind}-degree of node {i} exceeds 64-bit range ({total})")
    return DegreeVector(kind=kind, values=np.asarray(m.sum(axis=1 if kind == "out" else 0)).ravel())


def graph_meta(a: SparseCountMatrix) -> GraphMeta:
    _require_square(a, "graph_meta")
    m = a.csr
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


def _token_int(token: str) -> int:
    """The value of a token of the integer grammar ``-?[0-9]+``, at any length.

    Any other token raises ValueError, and one outside int64 OverflowError.
    """
    digits = token[token.startswith("-"):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer token: {token!r}")
    # 20 significant digits already leave int64, and int() refuses a string over 4300 characters
    digits = digits.lstrip("0")[:20] or "0"
    value = -int(digits) if token.startswith("-") else int(digits)
    if not -_INT64_END <= value < _INT64_END:
        raise OverflowError(f"outside int64: {token!r}")
    return value


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
            edges.append((_token_int(parts[0]), _token_int(parts[1])))
        except ValueError as exc:
            raise InputError(f"{where}{lineno}: non-integer endpoint in {line!r}") from exc
        except OverflowError:
            raise InputError(f"{where}{lineno}: node id outside the 64-bit integer range in {line!r}") from None
    return edges, declared


def _int_block(data: bytes, width: int) -> np.ndarray | None:
    """The int64 values of one block of :func:`_int_table`, ``width`` to a non-blank line, or None."""
    raw = np.frombuffer(data, dtype=np.uint8)
    nl = raw == 10
    minus = np.flatnonzero(raw == 45)
    # every byte below '0' is a tab, a newline, a space or a '-', and none is above '9'
    if raw.max() > 57 or np.count_nonzero(raw < 48) != (
            np.count_nonzero(nl) + np.count_nonzero(raw == 9) + np.count_nonzero(raw == 32) + len(minus)):
        return None
    starts = raw > 32  # the token bytes, then in place the first byte of each token
    np.greater(starts[1:], starts[:-1], out=starts[1:])
    # a '-' starts its token and a digit follows it
    if len(minus) and (minus[-1] == len(raw) - 1 or not starts[minus].all() or raw[minus + 1].min() < 48):
        return None
    events = np.flatnonzero(np.bitwise_or(starts, nl, out=starts))  # token starts and line ends, in order
    del starts, nl  # so the temporaries alive at once stay near the block's size
    lines = np.flatnonzero(raw[events] == 10)
    per_line = np.diff(lines, prepend=-1, append=len(events)) - 1  # tokens on each line, then after the last
    tokens = len(events) - len(lines)
    del events, lines
    if not ((per_line == 0) | (per_line == width)).all():
        return None
    if not tokens:  # np.fromstring reads a blank block as one 0
        return np.zeros(0, dtype=np.int64)
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(values) != tokens:
        return None
    # the reader saturates a token outside int64 at an end, so a token read there must spell that value;
    # digits are compared, not int(token), which refuses over 4300 digits, leading zeros included
    at_end = np.flatnonzero((values == _INT64_END - 1) | (values == -_INT64_END))
    if len(at_end):
        bounds = np.flatnonzero(np.diff(raw > 32, prepend=False, append=False)).reshape(-1, 2)
        for i in at_end.tolist():
            token = data[bounds[i, 0]:bounds[i, 1]]
            if token[:token.startswith(b"-")] + token.lstrip(b"-0") != str(values[i]).encode():
                return None
    return values


def _int_table(text: str, width: int) -> np.ndarray | None:
    """The ``(rows, width)`` int64 table of a text of plain integer lines, or None.

    The text is read a block of about ``_TABLE_BLOCK`` characters of whole
    lines at a time. A block is checked byte by byte in numpy: only ASCII
    digits, ``-``, tabs, spaces and newlines, every token ``-?[0-9]+`` and
    every non-blank line ``width`` tokens. Then numpy's C reader
    (``np.fromstring``) converts it, skipping blank lines. None leaves the
    text to the line grammar, which names the line. It comes for any other
    byte (a comment, ``\\r``, ``_``, ``+``, non-ASCII text), a ``-`` that
    does not start a token or has no digit after it, a non-blank line
    without ``width`` tokens, and a token outside int64 (the reader
    saturates it at an int64 end, so a token read there must spell that
    value).
    """
    if not text.isascii():
        return None
    # every line holds 0 or width values: one array of that bound holds the table once
    table, rows, lo = np.empty((text.count("\n") + 1) * width, dtype=np.int64), 0, 0
    while lo < len(text):
        hi = text.find("\n", lo + _TABLE_BLOCK - 1) + 1 or len(text)
        values, lo = _int_block(text[lo:hi].encode("ascii"), width), hi
        if values is None:
            return None
        table[rows:rows + len(values)] = values
        rows += len(values)
    return table[:rows].reshape(-1, width)


def edge_array(text: str, where: str = "line ") -> tuple[np.ndarray, int | None]:
    """The ``(m, 2)`` int64 endpoints of an edge-list text and its ``%nodes`` count, None if absent.

    A text of plain ``src<TAB>dst`` lines, after at most an exact ``%nodes N``
    first line, is read by numpy a block of lines at a time (:func:`_int_table`);
    any other text goes through :func:`parse_edge_pairs`, so a malformed line raises
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
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), declared


def parse_edge_list(text: str, dedup: bool = False) -> SparseCountMatrix:
    """Parse the tab-separated edge-list format.

    One ``src<TAB>dst`` pair per line; ``#`` starts a comment; an optional
    ``%nodes N`` header fixes the node count, which is otherwise inferred
    as ``max endpoint + 1``. With ``dedup``, repeated pairs collapse to a
    single unit edge. A text of plain integer lines under at most an exact
    ``%nodes N`` first line is read by numpy a block of lines at a time; any
    other text goes through the line grammar, and its errors still name
    ``line N``.
    """
    edges, n_nodes = edge_array(text)
    if n_nodes is None:
        n_nodes = int(edges.max()) + 1 if len(edges) else 0
    return from_edge_list(np.unique(edges, axis=0) if dedup else edges, n_nodes)


def read_edge_list(path: str | os.PathLike) -> SparseCountMatrix:
    """Load a graph from an edge-list text file (see :func:`parse_edge_list`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read edge list {path}: {exc}") from exc
    return parse_edge_list(text)
