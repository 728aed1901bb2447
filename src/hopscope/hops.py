"""Adjacency powers and connectivity-pattern algebra.

Two semirings drive everything here. Counting powers multiply over the
non-negative integers, so ``A^k[i, j]`` is the exact number of directed
walks of length ``k`` from ``i`` to ``j``; results are kept within 64-bit
range and overflow raises instead of wrapping. Support powers multiply
over booleans (rows stored as Python-int bitsets), so they track only
which entries are non-zero and can never overflow.

On top of the powers sit the structural checks: inclusion of the k-step
pattern into later patterns for graphs with self-loops, symmetric edges,
or a planted cycle; nilpotency with the longest-path index for acyclic
graphs; and empirical (preperiod, period) detection for the eventual
behavior of the pattern sequence.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from math import comb

import numpy as np
import scipy.sparse as sp

from .errors import CountOverflowError, InputError, LoopHypothesisError
from .graphs import SparseCountMatrix, _from_scipy, add_self_loops

__all__ = [
    "INT64_MAX",
    "SupportPattern",
    "DagProfile",
    "SupportPeriodicity",
    "LoopCheck",
    "LoopLemmaReport",
    "support_of",
    "mat_power_count",
    "mat_power_support",
    "power_ladder",
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


# ---------------------------------------------------------------------------
# support patterns


def _bits(r: int) -> Iterator[int]:
    """Indices of the set bits of ``r``, ascending."""
    while r:
        lsb = r & -r
        yield lsb.bit_length() - 1
        r ^= lsb


@dataclass(frozen=True)
class SupportPattern:
    """Boolean non-zero structure of a square matrix.

    ``rows[i]`` is a Python integer whose bit ``j`` is set iff entry
    ``(i, j)`` is non-zero.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise InputError("pattern needs one bitset row per node")

    @property
    def nnz(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def has(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=bool)
        for i, r in enumerate(self.rows):
            out[i, list(_bits(r))] = True
        return out

    @property
    def diagonal_full(self) -> bool:
        return all((r >> i) & 1 for i, r in enumerate(self.rows))

    @property
    def is_symmetric(self) -> bool:
        return all((self.rows[j] >> i) & 1 for i, r in enumerate(self.rows) for j in _bits(r))

    def __repr__(self):
        return f"SupportPattern(n={self.n}, nnz={self.nnz})"


def _identity_rows(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def support_of(m) -> SupportPattern:
    """Non-zero pattern of a count or weighted CSR matrix."""
    if not m.is_square:
        raise InputError("support is defined for square matrices")
    rows = [0] * m.n_rows
    nz = m.values != 0
    row_ids = np.repeat(np.arange(m.n_rows), np.diff(m.row_offsets))
    for i, c in zip(row_ids[nz].tolist(), m.col_indices[nz].tolist()):
        rows[i] |= 1 << c
    return SupportPattern(m.n_rows, tuple(rows))


def _bool_matmul(x: list[int], y: list[int]) -> list[int]:
    out = []
    for r in x:
        acc = 0
        m = r
        while m:
            lsb = m & -m
            acc |= y[lsb.bit_length() - 1]
            m ^= lsb
        out.append(acc)
    return out


def power_ladder(a: SparseCountMatrix) -> Iterator[SupportPattern]:
    """Yield ``support(A^1), support(A^2), ...`` without end, one boolean product per step.

    Sweeps over k read one ladder: ``support(A^K)`` costs ``K - 1`` products.
    """
    base = support_of(a)
    cur = base
    while True:
        yield cur
        cur = SupportPattern(base.n, tuple(_bool_matmul(cur.rows, base.rows)))


def mat_power_support(a: SparseCountMatrix, k: int) -> SupportPattern:
    """Boolean-semiring power: the pattern of ``A^k`` without overflow risk."""
    if not a.is_square:
        raise InputError("matrix power requires a square matrix")
    if k < 0:
        raise InputError("power must be non-negative")
    if k == 0:
        return SupportPattern(a.n_rows, tuple(_identity_rows(a.n_rows)))
    return next(islice(power_ladder(a), k - 1, None))


def support_subset(p: SupportPattern, q: SupportPattern) -> bool:
    if p.n != q.n:
        raise InputError(f"pattern shapes differ: {p.n} vs {q.n}")
    return all((rp & ~rq) == 0 for rp, rq in zip(p.rows, q.rows))


def support_equal(p: SupportPattern, q: SupportPattern) -> bool:
    if p.n != q.n:
        raise InputError(f"pattern shapes differ: {p.n} vs {q.n}")
    return p.rows == q.rows


# ---------------------------------------------------------------------------
# counting powers


def _exact_max_rowsum(m: sp.csr_matrix) -> int:
    data = m.data.tolist()
    indptr = m.indptr.tolist()
    best = 0
    for i in range(m.shape[0]):
        s = sum(data[indptr[i]:indptr[i + 1]])
        if s > best:
            best = s
    return best


def _py_rows(m: sp.csr_matrix) -> list[dict[int, int]]:
    rows = []
    indptr = m.indptr.tolist()
    indices = m.indices.tolist()
    data = m.data.tolist()
    for i in range(m.shape[0]):
        rows.append(dict(zip(indices[indptr[i]:indptr[i + 1]], data[indptr[i]:indptr[i + 1]])))
    return rows


def _count_matmul(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
    """Exact integer CSR product; raises if any entry would leave int64."""
    max_y = int(y.data.max()) if y.nnz else 0
    # any product entry is bounded by max_rowsum(x) * max(y)
    if x.nnz and _exact_max_rowsum(x) * max_y <= INT64_MAX:
        out = x @ y
        out.sum_duplicates()
        out.sort_indices()
        out.eliminate_zeros()
        return out
    # near the 64-bit edge: redo exactly with arbitrary precision and check
    xr, yr = _py_rows(x), _py_rows(y)
    n = x.shape[0]
    rows, cols, vals = [], [], []
    for i in range(n):
        acc: dict[int, int] = {}
        for kk, xv in xr[i].items():
            yrow = yr[kk]
            for j, yv in yrow.items():
                acc[j] = acc.get(j, 0) + xv * yv
        for j in sorted(acc):
            v = acc[j]
            if v > INT64_MAX:
                raise CountOverflowError(
                    f"walk count at ({i}, {j}) exceeds 64-bit range ({v})"
                )
            rows.append(i)
            cols.append(j)
            vals.append(v)
    return sp.csr_matrix(
        (np.array(vals, dtype=np.int64), (rows, cols)), shape=(n, x.shape[1])
    )


def mat_power_count(a: SparseCountMatrix, k: int) -> SparseCountMatrix:
    """Integer-semiring power: entry ``(i, j)`` counts length-``k`` walks."""
    if not a.is_square:
        raise InputError("matrix power requires a square matrix")
    if k < 0:
        raise InputError("power must be non-negative")
    n = a.n_rows
    if k == 0:
        return _from_scipy(sp.eye(n, dtype=np.int64, format="csr"))
    base = a.to_scipy()
    acc = base
    for _ in range(k - 1):
        acc = _count_matmul(acc, base)
    return _from_scipy(acc)


def density(x) -> float:
    """Fraction of non-zero entries over n^2 (diagonal included)."""
    if isinstance(x, SupportPattern):
        n2 = x.n * x.n
        nnz = x.nnz
    else:
        n2 = x.n_rows * x.n_cols
        nnz = int(np.count_nonzero(x.values))
    return nnz / n2 if n2 else 0.0


# ---------------------------------------------------------------------------
# acyclic structure


@dataclass(frozen=True)
class DagProfile:
    """Cycle test plus, for acyclic graphs, the longest-path length."""

    is_dag: bool
    longest_path_len: int | None = None
    topo_order: tuple[int, ...] | None = None


def dag_profile(a: SparseCountMatrix) -> DagProfile:
    """Kahn topological sort; for a DAG, a DP gives the longest path."""
    if not a.is_square:
        raise InputError("dag_profile requires a square matrix")
    n = a.n_rows
    succ = []
    indeg = [0] * n
    for i in range(n):
        cols, _ = a.row(i)
        cols = cols.tolist()
        if i in cols:
            return DagProfile(is_dag=False)
        succ.append(cols)
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
    if not a.is_square:
        raise InputError("support_periodicity requires a square matrix")
    if k_cap < 2:
        raise InputError("k_cap must be at least 2")
    seen: dict[SupportPattern, int] = {}
    for k, pat in enumerate(islice(power_ladder(a), k_cap), start=1):
        if not any(pat.rows):
            raise InputError(
                "adjacency is nilpotent (pattern vanished); use dag_profile for acyclic graphs"
            )
        if pat in seen:
            return SupportPeriodicity(preperiod=seen[pat], period=k - seen[pat])
        seen[pat] = k
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
    lemma: str
    shift: int
    checks: tuple[LoopCheck, ...]
    cycle: tuple[int, ...] | None = None

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def first_failure(self) -> LoopCheck | None:
        return next((c for c in self.checks if not c.holds), None)


def _first_extra_bit(lhs: list[int], rhs: list[int]) -> tuple[int, int] | None:
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        extra = a & ~b
        if extra:
            return i, next(_bits(extra))
    return None


# Path extensions one cycle search may make (about 0.3 s of search). The
# search is exponential: proving that a bidirected K7,7 has no 9-cycle
# takes several million extensions, and each +2 in m about 15x more.
CYCLE_SEARCH_BUDGET = 1_000_000


def _find_cycle(a: SparseCountMatrix, m: int) -> tuple[int, ...] | None:
    """Lexicographically smallest directed simple cycle of length m, within ``CYCLE_SEARCH_BUDGET``."""
    n = a.n_rows
    succ = [a.row(i)[0].tolist() for i in range(n)]
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


def _touch_rows(supports: list, k: int, cyc_mask: int, n: int) -> list[int]:
    """Pattern of pairs (i, j) joined by a length-k walk through the cycle."""
    out = [0] * n
    for t in range(k + 1):
        left, right = supports[t], supports[k - t]
        for i in range(n):
            for j in _bits(left[i] & cyc_mask):
                out[i] |= right[j]
    return out


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
    if not a.is_square:
        raise InputError("verify_loop_lemma requires a square matrix")
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    n = a.n_rows
    ladder = power_ladder(a)
    s1 = next(ladder)
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
        if m is None or m < 1:
            raise InputError("m_node check needs the cycle length m >= 1")
        if m > 12:
            raise InputError("cycle search guard: m must be at most 12")
        cycle = _find_cycle(a, m)
        if cycle is None:
            raise LoopHypothesisError(f"no directed simple cycle of length {m} exists")
        cyc_mask = sum(1 << v for v in cycle)
        shift = m
    else:
        raise InputError(f"unknown lemma kind {lemma!r}")

    # supports[k] is support(A^k) for k = 0..k_max+shift
    supports = [_identity_rows(n), s1.rows] + [p.rows for p in islice(ladder, k_max + shift - 1)]
    checks = []
    for k in range(1, k_max + 1):
        lhs = _touch_rows(supports, k, cyc_mask, n) if lemma == "m_node" else supports[k]
        bad = _first_extra_bit(lhs, supports[k + shift])
        checks.append(LoopCheck(k=k, holds=bad is None, counterexample=bad))
    return LoopLemmaReport(lemma=lemma, shift=shift, checks=tuple(checks), cycle=cycle)


# ---------------------------------------------------------------------------
# independent oracles and identities


def path_count_oracle(a: SparseCountMatrix, k: int, i: int, j: int) -> int:
    """Count length-k walks i -> j by exhaustive DFS.

    Parallel edges are enumerated as distinct choices. Deliberately
    independent of the semiring product; guarded to small instances
    because the enumeration is exponential.
    """
    if not a.is_square:
        raise InputError("oracle requires a square matrix")
    if a.n_rows > 12 or k > 6:
        raise InputError("oracle guard: needs n <= 12 and k <= 6")
    if k < 0 or not (0 <= i < a.n_rows) or not (0 <= j < a.n_rows):
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
    if not a.is_square:
        raise InputError("binomial check requires a square matrix")
    if k < 0:
        raise InputError("power must be non-negative")
    lhs = mat_power_count(add_self_loops(a), k)
    accum: dict[tuple[int, int], int] = {}
    for i in range(k + 1):
        c = comb(k, i)
        p = mat_power_count(a, i)
        for r in range(p.n_rows):
            cols, vals = p.row(r)
            for cc, vv in zip(cols.tolist(), vals.tolist()):
                key = (r, cc)
                accum[key] = accum.get(key, 0) + c * vv
    lhs_map: dict[tuple[int, int], int] = {}
    for r in range(lhs.n_rows):
        cols, vals = lhs.row(r)
        for cc, vv in zip(cols.tolist(), vals.tolist()):
            lhs_map[(r, cc)] = vv
    return lhs_map == accum
