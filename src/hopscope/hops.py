"""Adjacency powers and connectivity-pattern algebra.

Counting powers multiply over the non-negative integers: ``A^k[i, j]`` is
the exact number of directed walks of length ``k`` from ``i`` to ``j``,
held as canonical int64 CSR, and an entry outside int64 raises
:class:`CountOverflowError` instead of wrapping. Support powers multiply
over booleans and never overflow; a pattern is handed out as canonical
``bool`` CSR. Each semiring has one ladder that walks ``A, A^2, ...`` one
product per step (:func:`count_ladder`; :func:`power_ladder` and
:func:`support_nnz`), and every sweep over k reads one.

On top of the powers sit the structural checks: pattern inclusion under
self-loops, symmetric edges or a planted cycle, nilpotency with the
longest-path index for acyclic graphs, and (preperiod, period) detection
for the pattern sequence. A power index that is not an integer at or
above its lower bound raises :class:`InputError`.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice, repeat
from math import comb

import numpy as np
import scipy.sparse as sp

from .errors import CountOverflowError, InputError, LoopHypothesisError
from .graphs import SparseCountMatrix, _canonical, _CSRWrapper, _index, _matvecs, _require_square, add_self_loops

__all__ = [
    "INT64_MAX",
    "SupportPattern",
    "DagProfile",
    "SupportPeriodicity",
    "LoopCheck",
    "LoopLemmaReport",
    "support_of",
    "mat_power_count",
    "count_ladder",
    "mat_power_support",
    "power_ladder",
    "support_nnz",
    "support_subset",
    "support_equal",
    "verify_loop_lemma",
    "dag_profile",
    "support_periodicity",
    "density",
    "path_count_oracle",
    "binomial_expansion_check",
]

INT64_MAX = np.iinfo(np.int64).max
_GATHER_BYTES = 1 << 23  # bytes of dense cells or gathered rows one block of _pack, _unpack or _or_rows holds
_U64 = {c: np.uint64(c) for c in (1, 2, 4, 56, 0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                                   0x0101010101010101)}  # the constants of _row_counts


# ---------------------------------------------------------------------------
# support patterns


@dataclass(frozen=True, eq=False, repr=False)
class SupportPattern(_CSRWrapper):
    """Boolean non-zero structure of a square matrix.

    Built from a copy of any square scipy sparse matrix, ``csr`` is canonical:
    ``bool`` values, sorted column indices without repeats and no explicit
    zeros, so every stored entry is a non-zero ``(i, j)``.
    """

    csr: sp.csr_matrix
    _dtype = bool

    def __post_init__(self):
        if self.csr.shape[0] != self.csr.shape[1]:
            raise InputError(f"support is defined for square matrices, got {self.csr.shape}")
        object.__setattr__(self, "csr", _canonical(sp.csr_matrix(self.csr, dtype=bool, copy=True), bool))

    @property
    def diagonal_full(self) -> bool:
        return bool(self.csr.diagonal().all())

    @property
    def is_symmetric(self) -> bool:
        return (self.csr != self.csr.T).nnz == 0


def support_of(m) -> SupportPattern:
    """Non-zero pattern of a square count or weighted CSR matrix."""
    return SupportPattern._of(m.csr)


def support_subset(p: SupportPattern, q: SupportPattern) -> bool:
    if p.n_rows != q.n_rows:
        raise InputError(f"pattern shapes differ: {p.n_rows} vs {q.n_rows}")
    return _first_extra(p.csr, q.csr) is None


def support_equal(p: SupportPattern, q: SupportPattern) -> bool:
    if p.n_rows != q.n_rows:
        raise InputError(f"pattern shapes differ: {p.n_rows} vs {q.n_rows}")
    return p == q


# ---------------------------------------------------------------------------
# counting powers


def _exact_row(x: sp.csr_matrix, y: sp.csr_matrix, i: int) -> dict[int, int]:
    """Row ``i`` of ``x @ y`` in Python ints, ``{column: value}``."""
    acc: dict[int, int] = {}
    lo, hi = x.indptr[i], x.indptr[i + 1]
    for kk, xv in zip(x.indices[lo:hi].tolist(), x.data[lo:hi].tolist()):
        a, b = y.indptr[kk], y.indptr[kk + 1]
        for j, yv in zip(y.indices[a:b].tolist(), y.data[a:b].tolist()):
            acc[j] = acc.get(j, 0) + xv * yv
    return acc


def _count_matmul(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
    """Exact canonical int64 CSR product of CSR ``x`` and ``y``; raises if an entry would leave int64.

    Every term is non-negative, so a row of the int64 product is exact iff
    its true values fit. A float64 bound (max row sum of ``x`` times max of
    ``y``) clears most products at once; otherwise the float64 product
    screens rows, and only the rows it cannot clear are summed in Python
    ints, in row order, to name the first entry that leaves int64.
    """
    # a float64 sum of t non-negative terms is off by at most t * 2**-53 relative
    slack = max(2.0**-30, x.shape[1] * 2.0**-51)
    limit = float(INT64_MAX) * (1.0 - slack)
    xf = x.astype(np.float64)
    # every entry of x @ y is at most max_row_sum(x) * max(y)
    if _matvecs(xf, np.ones(x.shape[1])).max(initial=0.0) * y.data.max(initial=0) * (1.0 + slack) > limit:
        hot = (xf @ y.astype(np.float64)) > limit
        for i in np.flatnonzero(np.asarray(hot.sum(axis=1)).ravel()).tolist():
            acc = _exact_row(x, y, i)
            for j in sorted(acc):
                if acc[j] > INT64_MAX:
                    raise CountOverflowError(
                        f"walk count at ({i}, {j}) exceeds 64-bit range ({acc[j]})"
                    )
    return _canonical(x @ y, np.int64)


def _words(n: int) -> int:
    """The uint64 words of one packed row of ``n`` cells."""
    return -(-n // 64)


def _pack(m: sp.csr_matrix) -> np.ndarray:
    """The packed rows of a boolean CSR ``m``, made from ``_GATHER_BYTES`` dense cells at a time.

    Row i is ``_words(n_cols)`` uint64 words whose byte view holds cell
    ``(i, j)`` at bit ``j % 8`` of byte ``j // 8``; the bits past the last
    column are 0. ``m`` may hold unsorted or repeated indices, as scipy's
    products do.
    """
    n_rows, n_cols = m.shape
    out = np.zeros((n_rows, _words(n_cols)), dtype=np.uint64)
    step = max(1, _GATHER_BYTES // max(n_cols, 1))
    for lo in range(0, n_rows, step):
        out[lo:lo + step].view(np.uint8)[:, :-(-n_cols // 8)] = np.packbits(m[lo:lo + step].toarray(), axis=1,
                                                                             bitorder="little")
    return out


def _row_counts(p: np.ndarray) -> np.ndarray:
    """The set bits of each packed row, by a SWAR popcount of its words (numpy 1.24 has no ``bitwise_count``)."""
    x = p - ((p >> _U64[1]) & _U64[0x5555555555555555])
    x = (x & _U64[0x3333333333333333]) + ((x >> _U64[2]) & _U64[0x3333333333333333])
    x = (x + (x >> _U64[4])) & _U64[0x0F0F0F0F0F0F0F0F]
    return ((x * _U64[0x0101010101010101]) >> _U64[56]).sum(axis=1, dtype=np.int64)


def _unpack(p: np.ndarray) -> sp.csr_matrix:
    """The canonical boolean CSR of square packed rows, unpacked ``_GATHER_BYTES`` cells at a time."""
    n = p.shape[0]
    step = max(1, _GATHER_BYTES // n)
    columns = [np.nonzero(np.unpackbits(p[lo:lo + step].view(np.uint8), axis=1, count=n, bitorder="little"))[1]
               for lo in range(0, n, step)]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(_row_counts(p), out=offsets[1:])
    indices = np.concatenate(columns)
    return _canonical(sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, offsets), shape=(n, n)), bool)


def _or_rows(x: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Packed ``support(x @ R)`` of a boolean CSR ``x`` and packed rows ``R``.

    Row i is the OR of the rows of ``R`` at the columns of row i of ``x``:
    one gather of those rows and one ``np.bitwise_or.reduceat`` at the row
    starts, taken over at most ``_GATHER_BYTES`` of gathered rows at a
    time. A row split between two blocks ORs both parts; an empty row
    stays 0.
    """
    out = np.zeros((x.shape[0], rows.shape[1]), dtype=np.uint64)
    indptr = x.indptr
    step = max(1, _GATHER_BYTES // (8 * rows.shape[1]))
    for lo in range(0, x.nnz, step):
        hi = min(lo + step, x.nnz)
        # the block's segment starts: lo, then every row start inside the block, once
        inner = indptr[np.searchsorted(indptr, lo, side="right"):np.searchsorted(indptr, hi, side="left")]
        starts = np.unique(np.concatenate(([lo], inner)))
        owners = np.searchsorted(indptr, starts, side="right") - 1
        out[owners] |= np.bitwise_or.reduceat(rows[x.indices[lo:hi]], starts - lo, axis=0)
    return out


def _or_product(x: sp.csr_matrix, y):
    """Boolean product of CSR ``x`` and a rung ``y`` in either form, in ``y``'s form."""
    return x @ y if sp.issparse(y) else _or_rows(x, y)


def _bool_matmul(x: sp.csr_matrix, y):
    """The step of :func:`power_ladder`: :func:`_or_product`, under a name of its own so a test can count steps."""
    return _or_product(x, y)


def _packed(rung) -> np.ndarray:
    """A boolean rung in either form as packed rows."""
    return _pack(rung) if sp.issparse(rung) else rung


def _packs(n: int, nnz: int) -> bool:
    """Whether an n×n boolean rung of ``nnz`` entries is held as packed rows rather than CSR.

    It packs when its ``8 * n * _words(n)`` bytes are fewer than CSR's 5 an
    entry (1-byte value, int32 index) plus 4 a row offset, so an empty
    rung never packs.
    """
    return 0 < 8 * n * _words(n) < 5 * nnz + 4 * (n + 1)


def _rung_nnz(rung) -> int:
    """The entries of a boolean rung in either form; canonical CSR and scipy's products store no zero."""
    return int(rung.nnz) if sp.issparse(rung) else int(_row_counts(rung).sum())


def _rung_form(m):
    """A boolean product or rung in its form: packed rows where :func:`_packs` says so, else canonical CSR."""
    csr = sp.issparse(m)
    if _packs(m.shape[0], _rung_nnz(m)):
        return _pack(m) if csr else m
    return _canonical(m, bool) if csr else _unpack(m)


def _product_nnz_floor(base: sp.csr_matrix, cur: sp.csr_matrix) -> int:
    """A one-pass lower bound on ``nnz(base @ cur)`` for positive canonical operands.

    No term can cancel, so row i of the product holds at least the
    entries of the fullest row of ``cur`` among i's out-neighbours.
    """
    picked = np.diff(cur.indptr)[base.indices]
    starts = base.indptr[:-1][np.diff(base.indptr) > 0]
    return int(np.maximum.reduceat(picked, starts).sum()) if picked.size else 0


def _rung_key(rung) -> tuple[bool, bytes]:
    """A boolean rung's form and bytes, equal exactly for rungs of one pattern.

    The form follows from the pattern, and a canonical CSR rung stores only
    ``True``, so its index arrays (widened, as products may narrow them)
    are its pattern.
    """
    if sp.issparse(rung):
        return True, rung.indptr.astype(np.int64).tobytes() + rung.indices.astype(np.int64).tobytes()
    return False, rung.tobytes()


def _rungs(base: sp.csr_matrix) -> Iterator:
    """Yield ``support(B^1), support(B^2), ...`` of the boolean CSR ``base``, each in its :func:`_rung_form`.

    Each step is one :func:`_bool_matmul` with the base on the left. A CSR
    rung packs before its product when :func:`_product_nnz_floor` already
    passes the packing line. A rung equal to the one before it is a fixed
    point of ``P ↦ support(B·P)``, so it is yielded again with no further
    product.
    """
    if base.shape[0] != base.shape[1]:
        raise InputError("matrix power requires a square matrix")
    n = base.shape[0]
    cur = _rung_form(base)
    while True:
        yield cur
        step = _pack(cur) if sp.issparse(cur) and _packs(n, _product_nnz_floor(base, cur)) else cur
        nxt = _rung_form(_bool_matmul(base, step))
        if _rung_key(nxt) == _rung_key(cur):
            yield from repeat(cur)
        cur = nxt


def _powers(rungs: Iterator, ks, convert) -> Iterator:
    """Yield ``convert(rung k)`` of ``rungs`` for each k of ``ks``, which must rise from 1;
    only those rungs are converted."""
    rungs, last = enumerate(rungs, start=1), 0
    for k in ks:
        last = _index(k, "power", last + 1)
        yield next(convert(r) for j, r in rungs if j == last)


def _pattern(rung) -> SupportPattern:
    """A boolean rung in either form as a :class:`SupportPattern`."""
    return SupportPattern._of(rung if sp.issparse(rung) else _unpack(rung))


def _count_rungs(a: SparseCountMatrix) -> Iterator[sp.csr_matrix]:
    """The counting ladder of ``A``: its rungs ``A^k``, k = 1, 2, ..., as canonical int64 CSR."""
    _require_square(a, "matrix power")
    rung = a.csr
    while True:
        yield rung
        rung = _count_matmul(a.csr, rung)


def _bool_rungs(a: SparseCountMatrix) -> Iterator:
    """The boolean ladder of ``A``: its rungs ``support(A^k)``, k = 1, 2, ..., read in place."""
    return _rungs(support_of(a).csr)


def count_ladder(a: SparseCountMatrix) -> Iterator[SparseCountMatrix]:
    """Yield the exact ``A^1, A^2, ...`` without end, one counting product per step.

    The counting twin of :func:`power_ladder`: a sweep over k reads one
    ladder, and ``A^K`` costs ``K - 1`` products. Advancing to the first
    rung with an entry outside int64 raises :class:`CountOverflowError`.
    """
    return _powers(_count_rungs(a), count(1), SparseCountMatrix._of)


def support_nnz(a: SparseCountMatrix, ks) -> Iterator[int]:
    """Yield ``nnz(support(A^k))`` for each k of the ascending ``ks`` (all >= 1), counted off the rungs:
    no rung becomes a pattern."""
    return _powers(_bool_rungs(a), ks, _rung_nnz)


def power_ladder(a: SparseCountMatrix) -> Iterator[SupportPattern]:
    """Yield ``support(A^1), support(A^2), ...`` without end, one boolean product per step."""
    return _powers(_bool_rungs(a), count(1), _pattern)


def _power(a: SparseCountMatrix, k: int, cls, ladder, convert):
    """``A^k`` as a ``cls``: the identity at k = 0, else ``convert`` of rung k of ``ladder(a)``."""
    _require_square(a, "matrix power")
    if _index(k, "power", 0) == 0:
        return cls._of(sp.identity(a.n_rows, dtype=cls._dtype, format="csr"))
    return next(_powers(ladder(a), [k], convert))


def mat_power_count(a: SparseCountMatrix, k: int) -> SparseCountMatrix:
    """Integer-semiring power: entry ``(i, j)`` counts length-``k`` walks."""
    return _power(a, k, SparseCountMatrix, _count_rungs, SparseCountMatrix._of)


def mat_power_support(a: SparseCountMatrix, k: int) -> SupportPattern:
    """Boolean-semiring power: the pattern of ``A^k`` without overflow risk."""
    return _power(a, k, SupportPattern, _bool_rungs, _pattern)


def density(x: _CSRWrapper) -> float:
    """Fraction of non-zero entries over n^2 (diagonal included)."""
    n2 = x.n_rows * x.n_cols
    return int(np.count_nonzero(x.csr.data)) / n2 if n2 else 0.0


# ---------------------------------------------------------------------------
# acyclic structure


@dataclass(frozen=True)
class DagProfile:
    """Cycle test plus, for acyclic graphs, the longest-path length."""

    is_dag: bool
    longest_path_len: int | None = None
    topo_order: tuple[int, ...] | None = None


def _successors(a: SparseCountMatrix) -> list[list[int]]:
    """The out-neighbours of each node, ascending, as Python ints."""
    offsets, columns = a.csr.indptr.tolist(), a.csr.indices.tolist()
    return [columns[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def dag_profile(a: SparseCountMatrix) -> DagProfile:
    """Kahn topological sort; for a DAG, a DP gives the longest path."""
    _require_square(a, "dag_profile")
    n = a.n_rows
    succ = _successors(a)
    indeg = [0] * n
    for i, cols in enumerate(succ):
        if i in cols:
            return DagProfile(is_dag=False)
        for j in cols:
            indeg[j] += 1
    stack = sorted((i for i in range(n) if indeg[i] == 0), reverse=True)
    order: list[int] = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != n:
        return DagProfile(is_dag=False)
    dist = [0] * n
    for v in order:
        for w in succ[v]:
            if dist[v] + 1 > dist[w]:
                dist[w] = dist[v] + 1
    h = max(dist, default=0)
    return DagProfile(is_dag=True, longest_path_len=h, topo_order=tuple(order))


# ---------------------------------------------------------------------------
# eventual pattern behavior


@dataclass(frozen=True)
class SupportPeriodicity:
    """First repeat of the pattern sequence: ``support(A^{k+period}) ==
    support(A^k)`` for every ``k >= preperiod``, with ``period`` minimal."""

    preperiod: int
    period: int


def support_periodicity(a: SparseCountMatrix, k_cap: int) -> SupportPeriodicity | None:
    """Detect (preperiod, period) of the pattern sequence within ``k_cap``.

    The sequence ``support(A^1), support(A^2), ...`` evolves by a
    deterministic map, so its first repeated element fixes the minimal
    preperiod and period exactly. Returns ``None`` when no repeat occurs
    up to ``k_cap`` (not stabilized), which is an outcome, not an error.
    """
    _require_square(a, "support_periodicity")
    k_cap = _index(k_cap, "k_cap", 2)
    seen: dict[tuple[bool, bytes], int] = {}
    for k, rung in zip(range(1, k_cap + 1), _bool_rungs(a)):
        if not _rung_nnz(rung):
            raise InputError(
                "adjacency is nilpotent (pattern vanished); use dag_profile for acyclic graphs"
            )
        key = _rung_key(rung)
        if key in seen:
            return SupportPeriodicity(preperiod=seen[key], period=k - seen[key])
        seen[key] = k
    return None


# ---------------------------------------------------------------------------
# loop-driven inclusion checks


@dataclass(frozen=True)
class LoopCheck:
    k: int
    holds: bool
    counterexample: tuple[int, int] | None = None


@dataclass(frozen=True)
class LoopLemmaReport:
    """Verdicts for k = 1..k_max; ``nnz[k - 1]`` is the nnz of ``support(A^k)``."""

    lemma: str
    shift: int
    checks: tuple[LoopCheck, ...]
    nnz: tuple[int, ...]
    cycle: tuple[int, ...] | None = None

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


# Path extensions one cycle search may make (about 0.3 s of search). The
# search is exponential: proving that a bidirected K7,7 has no 9-cycle
# takes several million extensions, and each +2 in m about 15x more.
CYCLE_SEARCH_BUDGET = 1_000_000


def _find_cycle(a: SparseCountMatrix, m: int) -> tuple[int, ...] | None:
    """Lexicographically smallest directed simple cycle of length m, within ``CYCLE_SEARCH_BUDGET``."""
    n = a.n_rows
    succ = _successors(a)
    budget = iter(range(CYCLE_SEARCH_BUDGET))

    def extend(path: list[int], start: int) -> tuple[int, ...] | None:
        v = path[-1]
        if len(path) == m:
            return tuple(path) if start in succ[v] else None
        for w in succ[v]:
            if w == start or w in path:
                continue
            if next(budget, None) is None:
                raise InputError(f"cycle search for m={m} gave up after {CYCLE_SEARCH_BUDGET} extensions")
            got = extend(path + [w], start)
            if got is not None:
                return got
        return None

    if m == 1:
        for v in range(n):
            if v in succ[v]:
                return (v,)
        return None
    for start in range(n):
        got = extend([start], start)
        if got is not None:
            return got
    return None


def _first_extra(p, q) -> tuple[int, int] | None:
    """The row-major first entry of boolean rung ``p`` that rung ``q`` lacks, None if there is none.

    Two CSR rungs compare as CSR; otherwise both are read packed, and the
    column is the first set bit of the first non-zero row of ``p & ~q``.
    """
    if sp.issparse(p) and sp.issparse(q):
        extra = p > q  # canonical, as both operands are
        if not extra.nnz:
            return None
        row = int(np.searchsorted(extra.indptr, 0, side="right")) - 1
        return row, int(extra.indices[0])
    extra = _packed(p) & ~_packed(q)
    rows = np.flatnonzero(extra.any(axis=1))
    if not len(rows):
        return None
    row = int(rows[0])
    return row, int(np.flatnonzero(np.unpackbits(extra[row].view(np.uint8), bitorder="little"))[0])


def _cycle_walks(base: sp.csr_matrix, rungs: list, cycle: tuple[int, ...]) -> Iterator:
    """Yield, for k = 1, 2, ..., the rung of pairs (i, j) joined by a length-k walk through the cycle.

    With ``rungs[k - 1]`` the rung of ``support(B^k)`` and ``E`` the cycle
    nodes' diagonal, that set is ``L_k = OR_t B^t E B^(k-t)``, and
    ``L_k = B·L_(k-1) OR E·B^k`` from ``L_0 = E``: each k takes one product
    with the base and ORs in the rows of rung k at the cycle nodes.
    """
    pick = sp.csr_matrix((np.ones(len(cycle), dtype=bool), (cycle, cycle)), shape=base.shape)
    lhs = pick
    for rung in rungs:
        walks, ends = _or_product(base, lhs), _or_product(pick, rung)
        lhs = _rung_form(walks + ends if sp.issparse(walks) and sp.issparse(ends) else _packed(walks) | _packed(ends))
        yield lhs


def verify_loop_lemma(
    a: SparseCountMatrix,
    lemma: str,
    k_max: int,
    m: int | None = None,
) -> LoopLemmaReport:
    """Check the pattern-inclusion law implied by a loop structure.

    ``self_loop`` (needs a loop on every node) asserts
    ``support(A^k) ⊆ support(A^{k+1})``; ``two_node`` (needs symmetric
    support) asserts inclusion into ``A^{k+2}``; ``m_node`` (needs a
    directed m-cycle, found automatically) asserts that entries whose
    witnessing walk touches the cycle are also present in ``A^{k+m}``.

    An unmet structural precondition raises :class:`LoopHypothesisError`;
    that is not a failed check, the property simply was not asserted.
    """
    _require_square(a, "verify_loop_lemma")
    _index(k_max, "k_max", 1, sys.maxsize)  # no report tuple holds more checks
    s1 = support_of(a)
    cycle: tuple[int, ...] | None = None

    if lemma == "self_loop":
        if not s1.diagonal_full:
            raise LoopHypothesisError("self_loop check needs a self-loop on every node")
        shift = 1
    elif lemma == "two_node":
        if not s1.is_symmetric:
            raise LoopHypothesisError("two_node check needs symmetric support (every edge bidirected)")
        shift = 2
    elif lemma == "m_node":
        if _index(m, "m", 1) > 12:
            raise InputError("cycle search guard: m must be at most 12")
        cycle = _find_cycle(a, m)
        if cycle is None:
            raise LoopHypothesisError(f"no directed simple cycle of length {m} exists")
        shift = m
    else:
        raise InputError(f"unknown lemma kind {lemma!r}")

    # at step k the window holds support(A^k) .. support(A^(k+shift)), each in its rung form, and no other rung
    ladder = _rungs(s1.csr)
    window = deque(islice(ladder, shift), maxlen=shift + 1)
    near = (window[0] for _ in count())
    lhs = _cycle_walks(s1.csr, near, cycle) if lemma == "m_node" else near
    checks, nnz = [], []
    for k, far in zip(range(1, k_max + 1), ladder):
        window.append(far)
        bad = _first_extra(next(lhs), far)
        checks.append(LoopCheck(k=k, holds=bad is None, counterexample=bad))
        nnz.append(_rung_nnz(window[0]))
    return LoopLemmaReport(lemma=lemma, shift=shift, checks=tuple(checks), nnz=tuple(nnz), cycle=cycle)


# ---------------------------------------------------------------------------
# independent oracles and identities


def path_count_oracle(a: SparseCountMatrix, k: int, i: int, j: int) -> int:
    """Count length-k walks i -> j by exhaustive DFS.

    Parallel edges are enumerated as distinct choices. Deliberately
    independent of the semiring product; guarded to small instances
    because the enumeration is exponential.
    """
    _require_square(a, "path_count_oracle")
    if a.n_rows > 12 or _index(k, "power", 0) > 6:
        raise InputError("oracle guard: needs n <= 12 and k <= 6")
    if _index(i, "i", 0) >= a.n_rows or _index(j, "j", 0) >= a.n_rows:
        raise InputError("bad oracle arguments")
    rows = [list(zip(a.row(v)[0].tolist(), a.row(v)[1].tolist())) for v in range(a.n_rows)]

    def walk(v: int, left: int) -> int:
        if left == 0:
            return 1 if v == j else 0
        total = 0
        for w, mult in rows[v]:
            total += mult * walk(w, left - 1)
        return total

    return walk(i, k)


def binomial_expansion_check(a: SparseCountMatrix, k: int) -> bool:
    """Exact identity ``(A+I)^k == sum_i C(k, i) A^i`` over the integers."""
    _require_square(a, "binomial_expansion_check")
    k = _index(k, "power", 0)
    lhs = mat_power_count(add_self_loops(a), k)
    powers = [mat_power_count(a, 0), *islice(count_ladder(a), k)]
    accum: dict[tuple[int, int], int] = {}
    for i, p in enumerate(powers):
        c = comb(k, i)
        for key, vv in _entries(p).items():
            accum[key] = accum.get(key, 0) + c * vv
    return _entries(lhs) == accum


def _entries(p: SparseCountMatrix) -> dict[tuple[int, int], int]:
    """``{(row, column): count}`` of the stored entries, in Python ints."""
    coo = p.csr.tocoo()
    return dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
