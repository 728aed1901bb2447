"""Adjacency powers and connectivity-pattern algebra.

Two semirings drive everything here. Counting powers multiply over the
non-negative integers, so ``A^k[i, j]`` is the exact number of directed
walks of length ``k`` from ``i`` to ``j``; results are kept within 64-bit
range and overflow raises instead of wrapping. Support powers multiply
over booleans (canonical ``bool`` scipy CSR, the format every other
layer uses), so they track only which entries are non-zero and can never
overflow. Each semiring has one ladder that walks ``A, A^2, ...`` one
product per step: :func:`count_ladder` for counts and
:func:`power_ladder` for patterns; every sweep over k reads one.

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
    "count_ladder",
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


@dataclass(frozen=True, eq=False)
class SupportPattern:
    """Boolean non-zero structure of a square matrix.

    Built from a copy of any square scipy sparse matrix, ``csr`` is kept canonical:
    ``bool`` values, sorted column indices without repeats and no explicit
    zeros, so every stored entry is a non-zero ``(i, j)``. Patterns compare
    and hash by ``(n, indptr, indices)``.
    """

    csr: sp.csr_matrix

    def __post_init__(self):
        m = sp.csr_matrix(self.csr, dtype=bool, copy=True)
        if m.shape[0] != m.shape[1]:
            raise InputError(f"support is defined for square matrices, got {m.shape}")
        m.sum_duplicates()
        m.eliminate_zeros()
        object.__setattr__(self, "csr", m)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @property
    def rows(self) -> tuple[int, ...]:
        """Row ``i`` as a Python-int bitset whose bit ``j`` is set iff ``(i, j)`` is stored."""
        ptr, idx = self.csr.indptr.tolist(), self.csr.indices.tolist()
        return tuple(sum(1 << j for j in idx[ptr[i]:ptr[i + 1]]) for i in range(self.n))

    def has(self, i: int, j: int) -> bool:
        return bool(self.csr[i, j])

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    @property
    def diagonal_full(self) -> bool:
        return bool(self.csr.diagonal().all())

    @property
    def is_symmetric(self) -> bool:
        return self == SupportPattern(self.csr.T)

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.csr.indptr.astype(np.int64).tobytes(), self.csr.indices.astype(np.int64).tobytes()

    def __eq__(self, other):
        return isinstance(other, SupportPattern) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SupportPattern(n={self.n}, nnz={self.nnz})"


def support_of(m) -> SupportPattern:
    """Non-zero pattern of a square count or weighted CSR matrix."""
    return SupportPattern(m.to_scipy())


def _bool_matmul(x: SupportPattern, y: SupportPattern) -> SupportPattern:
    return SupportPattern(x.csr @ y.csr)


def power_ladder(a: SparseCountMatrix) -> Iterator[SupportPattern]:
    """Yield ``support(A^1), support(A^2), ...`` without end, one boolean product per step.

    Sweeps over k read one ladder: ``support(A^K)`` costs ``K - 1`` products.
    """
    base = support_of(a)
    cur = base
    while True:
        yield cur
        cur = _bool_matmul(cur, base)


def mat_power_support(a: SparseCountMatrix, k: int) -> SupportPattern:
    """Boolean-semiring power: the pattern of ``A^k`` without overflow risk."""
    if not a.is_square:
        raise InputError("matrix power requires a square matrix")
    if k < 0:
        raise InputError("power must be non-negative")
    if k == 0:
        return SupportPattern(sp.identity(a.n_rows, dtype=bool, format="csr"))
    return next(islice(power_ladder(a), k - 1, None))


def _first_extra(p: SupportPattern, q: SupportPattern) -> tuple[int, int] | None:
    """The row-major first entry of ``p`` that ``q`` lacks, None if there is none."""
    extra = p.csr > q.csr  # canonical, as both operands are
    if not extra.nnz:
        return None
    row = int(np.searchsorted(extra.indptr, 0, side="right")) - 1
    return row, int(extra.indices[0])


def support_subset(p: SupportPattern, q: SupportPattern) -> bool:
    if p.n != q.n:
        raise InputError(f"pattern shapes differ: {p.n} vs {q.n}")
    return _first_extra(p, q) is None


def support_equal(p: SupportPattern, q: SupportPattern) -> bool:
    if p.n != q.n:
        raise InputError(f"pattern shapes differ: {p.n} vs {q.n}")
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
    """Exact integer CSR product; raises if any entry would leave int64.

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
    if (xf @ np.ones(x.shape[1])).max(initial=0.0) * y.data.max(initial=0) * (1.0 + slack) > limit:
        high = (xf @ y.astype(np.float64)).tocoo()
        for i in np.unique(high.row[high.data > limit]).tolist():
            acc = _exact_row(x, y, i)
            for j in sorted(acc):
                if acc[j] > INT64_MAX:
                    raise CountOverflowError(
                        f"walk count at ({i}, {j}) exceeds 64-bit range ({acc[j]})"
                    )
    out = x @ y
    out.sum_duplicates()
    out.sort_indices()
    out.eliminate_zeros()
    return out


def count_ladder(a: SparseCountMatrix) -> Iterator[SparseCountMatrix]:
    """Yield the exact ``A^1, A^2, ...`` without end, one counting product per step.

    The counting twin of :func:`power_ladder`: a sweep over k reads one
    ladder, and ``A^K`` costs ``K - 1`` products. Advancing to the first
    rung with an entry outside int64 raises :class:`CountOverflowError`.
    """
    if not a.is_square:
        raise InputError("matrix power requires a square matrix")
    base = a.to_scipy()
    cur = base
    while True:
        yield _from_scipy(cur)
        cur = _count_matmul(cur, base)


def mat_power_count(a: SparseCountMatrix, k: int) -> SparseCountMatrix:
    """Integer-semiring power: entry ``(i, j)`` counts length-``k`` walks."""
    if not a.is_square:
        raise InputError("matrix power requires a square matrix")
    if k < 0:
        raise InputError("power must be non-negative")
    if k == 0:
        return _from_scipy(sp.eye(a.n_rows, dtype=np.int64, format="csr"))
    return next(islice(count_ladder(a), k - 1, None))


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
        if not pat.nnz:
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


def _cycle_lhs(supports: list[SupportPattern], k: int, cycle: tuple[int, ...]) -> SupportPattern:
    """Pairs (i, j) joined by a length-k walk through the cycle.

    That is the OR over t of ``S_t[:, cycle] @ S_{k-t}[cycle, :]`` with
    ``S_t = supports[t]``, taken as one product of the stacked slices.
    """
    cyc = list(cycle)
    left = sp.hstack([supports[t].csr[:, cyc] for t in range(k + 1)], format="csr")
    right = sp.vstack([supports[k - t].csr[cyc, :] for t in range(k + 1)], format="csr")
    return SupportPattern(left @ right)


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
        shift = m
    else:
        raise InputError(f"unknown lemma kind {lemma!r}")

    # supports[k] is support(A^k) for k = 0..k_max+shift
    supports = [mat_power_support(a, 0), s1, *islice(ladder, k_max + shift - 1)]
    checks = []
    for k in range(1, k_max + 1):
        lhs = _cycle_lhs(supports, k, cycle) if lemma == "m_node" else supports[k]
        bad = _first_extra(lhs, supports[k + shift])
        checks.append(LoopCheck(k=k, holds=bad is None, counterexample=bad))
    nnz = tuple(p.nnz for p in supports[1:k_max + 1])
    return LoopLemmaReport(lemma=lemma, shift=shift, checks=tuple(checks), nnz=nnz, cycle=cycle)


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
