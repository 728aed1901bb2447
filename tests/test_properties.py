"""Hypothesis-driven structural properties over arbitrary small digraphs."""

import contextlib
import io
import tempfile
from dataclasses import replace
from itertools import islice
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hopscope import (
    ARCHITECTURES,
    NORM_SCHEMES,
    CountOverflowError,
    DatasetError,
    InputError,
    Metrics,
    ModelSpec,
    NumericError,
    SparseCountMatrix,
    SupportPattern,
    SweepRow,
    TrainConfig,
    WeightedAdjacency,
    add_self_loops,
    count_ladder,
    degrees,
    density,
    from_dense,
    from_edge_list,
    load_dataset,
    make_splits,
    mat_power_count,
    normalize,
    mat_power_support,
    power_ladder,
    run_sweep,
    support_equal,
    support_of,
    support_periodicity,
    support_subset,
    symmetrize,
    synthesize_dataset,
    transpose,
    verify_loop_lemma,
)
from hopscope import LayerParams, cli, datasets, graphs, hops, model_backward, models
from hopscope.models import (
    ACTIVATIONS,
    PROPAGATIONS,
    _check_finite,
    _reach_adjacency,
    build_aggregation,
    max_relative_error,
)
from hopscope.training import train_splits


@st.composite
def digraphs(draw, max_nodes=8, max_edges=20):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edge_list(edges, n)


@given(digraphs())
@settings(max_examples=60, deadline=None)
def test_transpose_is_an_involution(a):
    assert transpose(transpose(a)) == a


@given(digraphs())
@settings(max_examples=60, deadline=None)
def test_degree_mass_conserved(a):
    assert degrees(a, "in").total == degrees(a, "out").total == int(a.values.sum())


@given(digraphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_self_loops_make_patterns_grow(a, k):
    looped = add_self_loops(a)
    assert support_subset(mat_power_support(looped, k), mat_power_support(looped, k + 1))


@given(digraphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_symmetric_patterns_grow_by_two(a, k):
    s = symmetrize(a)
    assert support_subset(mat_power_support(s, k), mat_power_support(s, k + 2))


@given(digraphs(max_nodes=6), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_support_power_agrees_with_count_power(a, k):
    assert support_equal(mat_power_support(a, k), support_of(mat_power_count(a, k)))


@given(digraphs(), st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_power_ladder_rungs_are_count_power_supports(a, k_max):
    for k, rung in enumerate(islice(power_ladder(a), k_max), start=1):
        assert support_equal(rung, support_of(mat_power_count(a, k)))


@st.composite
def digraphs_with_cycle(draw, max_nodes=7, max_extra=12):
    """A digraph with a planted directed simple cycle, returned with that cycle."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    order = draw(st.permutations(range(n)))
    cycle = tuple(order[:draw(st.integers(min_value=1, max_value=n))])
    ring = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_extra))
    return from_edge_list(ring + extra, n), cycle


def _dense_reach(a, k_max):
    """Boolean ``A^t`` for t = 0..k_max by dense numpy products."""
    adj = a.to_dense() > 0
    out = [np.eye(a.n_rows, dtype=bool)]
    for _ in range(k_max):
        out.append((out[-1].astype(np.int64) @ adj.astype(np.int64)) > 0)
    return out


def _ring(n, loops=False):
    return from_edge_list([(i, (i + 1) % n) for i in range(n)] + [(i, i) for i in range(n) if loops], n)


@given(st.one_of(digraphs(), digraphs().map(add_self_loops), digraphs_with_cycle().map(lambda case: case[0])),
       st.integers(min_value=1, max_value=12))
@example(_ring(3), 12)  # periodic: its rungs never repeat in a row, so every step takes a product
@example(_ring(20, loops=True), 25)  # saturates: rung 19 is full, and rung 20 repeats it
@example(from_edge_list([(0, 1), (1, 2)], 3), 6)  # nilpotent: rung 4 repeats the empty rung 3
@settings(max_examples=150, deadline=None)
def test_boolean_ladder_stops_exactly_at_its_first_fixed_point(a, k_max):
    reach = _dense_reach(a, k_max)
    made = []
    real = hops._bool_matmul
    with patch.object(hops, "_bool_matmul", lambda x, y: made.append(1) or real(x, y)):
        rungs = list(islice(power_ladder(a), k_max))
    assert len(rungs) == k_max and all(np.array_equal(rung.to_dense(), r) for rung, r in zip(rungs, reach[1:]))
    # one product per rung after the first, up to the first rung equal to the one before it
    fixed = next((k for k in range(1, k_max) if np.array_equal(reach[k + 1], reach[k])), k_max - 1)
    event("stopped early" if fixed < k_max - 1 else "walked every rung")
    assert len(made) == fixed


def _cells(rung):
    """A boolean rung in either form as a dense bool array."""
    return (rung if sp.issparse(rung) else hops._unpack(rung)).toarray()


@given(digraphs_with_cycle(), st.integers(min_value=1, max_value=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_cycle_walks_are_the_walks_through_the_cycle(case, k_max, as_csr):
    a, cycle = case
    # every rung as CSR, or each in its rung form (most of these small ones pack)
    rungs = [mat_power_support(a, t).csr for t in range(1, k_max + 1)]
    rungs = rungs if as_csr else [hops._rung_form(r) for r in rungs]
    reach = _dense_reach(a, k_max)
    walks = list(hops._cycle_walks(support_of(a).csr, rungs, cycle))
    assert len(walks) == k_max
    for k, got in enumerate(walks, start=1):
        # (i, j) such that some t and some c on the cycle give A^t[i, c] > 0 and A^{k-t}[c, j] > 0
        want = np.zeros((a.n_rows, a.n_rows), dtype=bool)
        for t in range(k + 1):
            for c in cycle:
                want |= np.outer(reach[t][:, c], reach[k - t][c, :])
        assert np.array_equal(_cells(got), want)


_WORD_SIDES = (1, 63, 64, 65, 127, 128, 129)  # node counts on both sides of the 64-cell words


@st.composite
def word_boundary_digraphs(draw):
    """``(graph, lemma, m)``: a digraph with n on a word boundary, shaped for one loop lemma.

    Its edges number a multiple of n (the rungs cross the size line after
    a few steps), sit within a few entries of rung 1's size line, or fill
    about half the cells.
    """
    n = draw(st.sampled_from(_WORD_SIDES))
    line = (8 * n * -(-n // 64) - 4 * (n + 1)) // 5  # rung 1 packs past this many entries
    size = draw(st.sampled_from(["sparse", "line", "half"]))
    m = {"sparse": n * draw(st.sampled_from([1, 2, 3])) // 2,
         "line": line + draw(st.integers(-2, 2)),
         "half": n * n // 2}[size]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.choice(n * n, size=min(max(m, 0), n * n), replace=False)
    edges = np.stack(np.divmod(cells, n), axis=1)
    lemma = draw(st.sampled_from(["self_loop", "two_node", "m_node"]))
    cycle_len = None
    if lemma == "m_node":
        cycle_len = draw(st.integers(1, min(n, 4)))
        ring = rng.choice(n, size=cycle_len, replace=False)
        edges = np.concatenate([edges, np.stack([ring, np.roll(ring, -1)], axis=1)]).reshape(-1, 2)
    graph = from_edge_list(edges, n)
    event(f"{size} n={n} {lemma}")
    if lemma == "self_loop":
        graph = add_self_loops(graph)
    elif lemma == "two_node":
        graph = symmetrize(graph)
    return graph, lemma, cycle_len


def _float_reach(a, k_max):
    """Boolean ``A^t`` for t = 0..k_max by dense float32 products (exact: every count stays below 2**24)."""
    adj = (a.to_dense() > 0).astype(np.float32)
    out = [np.eye(a.n_rows, dtype=bool)]
    for _ in range(k_max):
        out.append((out[-1].astype(np.float32) @ adj) > 0)
    return out


def _first_missing(p, q):
    hits = np.argwhere(p & ~q)
    return tuple(hits[0].tolist()) if len(hits) else None


@given(word_boundary_digraphs(), st.integers(1, 5), st.sampled_from([1024, 1 << 23]))
@settings(max_examples=120, deadline=None)
def test_packed_ladder_equals_a_dense_boolean_oracle(case, k_max, block):
    # at 1 KiB, packing, unpacking and the packed product take a few rows or entries a block
    with patch.object(hops, "_GATHER_BYTES", block):
        _check_packed_ladder(*case, k_max)


def _check_packed_ladder(a, lemma, m, k_max):
    """The rungs, ``verify_loop_lemma`` and ``support_periodicity`` of ``a`` against dense oracles."""
    shift = {"self_loop": 1, "two_node": 2}.get(lemma, m)
    k_cap = 10
    reach = _float_reach(a, max(k_max + shift, k_cap))
    n = a.n_rows
    # every rung is in the form its size asks for, and holds the oracle's pattern and count
    rungs = list(islice(hops._rungs(support_of(a).csr), k_max + shift))
    for k, rung in enumerate(rungs, start=1):
        nnz = int(np.count_nonzero(reach[k]))
        assert isinstance(rung, np.ndarray) == hops._packs(n, nnz)
        assert hops._rung_nnz(rung) == nnz and np.array_equal(_cells(rung), reach[k])
    event(f"forms {''.join('p' if isinstance(r, np.ndarray) else 'c' for r in rungs)}")
    for k in range(1, len(rungs)):
        assert hops._first_extra(rungs[k], rungs[k - 1]) == _first_missing(reach[k + 1], reach[k])
        assert hops._first_extra(rungs[k - 1], rungs[k]) == _first_missing(reach[k], reach[k + 1])
    assert [p.to_dense().tolist() for p in islice(power_ladder(a), k_max)] == [r.tolist() for r in reach[1:k_max + 1]]
    assert list(hops.support_nnz(a, range(1, k_max + 1))) == [int(np.count_nonzero(r)) for r in reach[1:k_max + 1]]
    # the loop lemma: the walks through the cycle (or every walk) of length k against A^(k+shift)
    report = verify_loop_lemma(a, lemma, k_max, m=m)
    want = []
    for k in range(1, k_max + 1):
        lhs = reach[k]
        if lemma == "m_node":
            c = list(report.cycle)
            lhs = np.zeros((n, n), dtype=bool)
            for t in range(k + 1):
                lhs |= (reach[t][:, c].astype(np.float32) @ reach[k - t][c, :].astype(np.float32)) > 0
        want.append(_first_missing(lhs, reach[k + shift]))
    assert [c.counterexample for c in report.checks] == want and all(c.holds for c in report.checks) == (
        want == [None] * k_max)
    assert report.nnz == tuple(int(np.count_nonzero(r)) for r in reach[1:k_max + 1])
    # periodicity: the first repeat within k_cap, unless a rung vanishes first
    seen, got = {}, None
    for k in range(1, k_cap + 1):
        if not reach[k].any():
            got = "nilpotent"
            break
        key = reach[k].tobytes()
        if key in seen:
            got = (seen[key], k - seen[key])
            break
        seen[key] = k
    event(f"periodicity {got if isinstance(got, str) else 'repeat' if got else 'none'}")
    try:
        per = support_periodicity(a, k_cap)
        assert got == (None if per is None else (per.preperiod, per.period))
    except InputError:
        assert got == "nilpotent"


@st.composite
def pattern_pairs(draw, max_nodes=7):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    cells = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    return (np.array(draw(cells), dtype=bool).reshape(n, n), np.array(draw(cells), dtype=bool).reshape(n, n))


@given(pattern_pairs())
@settings(max_examples=200, deadline=None)
def test_first_extra_is_the_row_major_first_missing_entry(pair):
    p, q = pair
    hits = np.argwhere(p & ~q)
    want = tuple(hits[0].tolist()) if len(hits) else None
    sp_p, sp_q = SupportPattern(sp.csr_matrix(p)), SupportPattern(sp.csr_matrix(q))
    # each rung as CSR or as packed rows
    for lhs in (sp_p.csr, hops._pack(sp_p.csr)):
        for rhs in (sp_q.csr, hops._pack(sp_q.csr)):
            got = hops._first_extra(lhs, rhs)
            assert got == want
            assert got is None or all(type(x) is int for x in got)  # the CLI prints it
    assert support_subset(sp_p, sp_q) == (want is None)


@given(digraphs(max_nodes=6), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_count_powers_multiply(a, k1, k2):
    lhs = mat_power_count(a, k1 + k2).to_dense()
    rhs = mat_power_count(a, k1).to_dense() @ mat_power_count(a, k2).to_dense()
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# exact count ladder and the int64 screen against Python-int products

_INT64_MAX = 2**63 - 1


def _exact_power(a, k):
    """``A^k`` in Python ints: numpy's matrix power on an object array."""
    return np.linalg.matrix_power(a.to_dense().astype(object), k)


def _overflow_message(exact):
    """The message of the row-major first entry above int64, None if every entry fits."""
    for (i, j), v in np.ndenumerate(exact):
        if v > _INT64_MAX:
            return f"walk count at ({i}, {j}) exceeds 64-bit range ({v})"
    return None


@st.composite
def multigraphs(draw, max_nodes=6, huge=(2**20, 2**40)):
    """Small digraphs whose multiplicities are small or ``huge``, so some powers leave int64."""
    n = draw(st.integers(1, max_nodes))
    mult = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(*huge))
    dense = np.array(draw(st.lists(mult, min_size=n * n, max_size=n * n)), dtype=np.int64)
    return from_dense(dense.reshape(n, n))


@st.composite
def counts_with_empty_lines(draw, max_nodes=7, top=2**40):
    """Counts up to ``top`` with some all-zero rows and columns."""
    n = draw(st.integers(1, max_nodes))
    mult = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(1, top))
    dense = np.array(draw(st.lists(mult, min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
    dense[draw(st.lists(st.integers(0, n - 1), max_size=2)), :] = 0
    dense[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    return from_dense(dense)


def _inverse_power(x, p):
    return np.divide(1.0, x**p, out=np.zeros_like(x), where=x > 0)


@given(counts_with_empty_lines(), st.sampled_from(NORM_SCHEMES))
@settings(max_examples=200, deadline=None)
def test_normalize_is_the_dense_diagonal_rescaling(a, scheme):
    dense = a.to_dense().astype(np.float64)
    out, inn, one = dense.sum(axis=1), dense.sum(axis=0), np.ones(a.n_rows)
    d_l, d_r = {"none": (one, one), "row": (_inverse_power(out, 1), one),
                "sym": (_inverse_power(out, 0.5), _inverse_power(out, 0.5)),
                "dir": (_inverse_power(inn, 0.5), _inverse_power(out, 0.5))}[scheme]
    want = np.diag(d_l) @ dense @ np.diag(d_r)
    w = normalize(a, scheme)
    np.testing.assert_allclose(w.to_dense(), want, rtol=1e-12, atol=0)
    assert w.zero_row_count == int(np.count_nonzero(~want.any(axis=1)))
    # the count matrix's own index arrays, not copies
    assert np.shares_memory(w.csr.indptr, a.csr.indptr)
    assert a.nnz == 0 or np.shares_memory(w.csr.indices, a.csr.indices)


@st.composite
def dense_operands(draw, n):
    """An operand for an n-column product: a vector or 1 to 40 columns, C-ordered, F-ordered or strided."""
    width = draw(st.one_of(st.none(), st.integers(1, 40)))
    shape = (n,) if width is None else (n, width)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, size=shape)
    x[rng.random(shape) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    event(f"{'vector' if width is None else 'one column' if width == 1 else 'columns'}, {layout}")
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":  # every other column (every other entry of a vector) of a wider array
        wide = np.full(shape[:-1] + (2 * shape[-1],), np.nan)
        wide[..., ::2] = x
        return wide[..., ::2]
    return x


@given(counts_with_empty_lines(), st.sampled_from(NORM_SCHEMES), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_direct_kernel_is_bit_equal_to_scipys_product(a, scheme, wide, data):
    # ``@`` of Â and of its CSC view Âᵀ calls scipy's private compiled kernels: a change to
    # their signature or semantics in scipy must fail here
    w = normalize(a, scheme)
    if wide:
        m = sp.csr_matrix(w.csr, copy=True)
        m.indptr, m.indices = m.indptr.astype(np.int64), m.indices.astype(np.int64)
        w = WeightedAdjacency(m, w.scheme, w.zero_row_count)
    event(f"{w.csr.indices.dtype} indices")
    if np.any(w.csr.data == 0):
        event("explicit zeros")
    if np.any(np.diff(w.csr.indptr) == 0):
        event("empty rows")
    for op, ref in ((w, w.csr), (w.T, w.csr.T)):
        x = data.draw(dense_operands(a.n_rows))
        got, want = op @ x, ref @ x
        assert type(got) is np.ndarray and got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


_BIG = np.finfo(np.float64).max


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                  elements=st.one_of(st.floats(), st.sampled_from([_BIG, -_BIG, _BIG / 2, np.inf, -np.inf, np.nan]))))
@settings(max_examples=300, deadline=None)
@np.errstate(over="ignore", invalid="ignore")  # its callers silence numpy's warnings, as the forward does
def test_check_finite_raises_exactly_on_a_non_finite_entry(h):
    finite = bool(np.all(np.isfinite(h)))
    event("not finite" if not finite else "finite, sum overflows" if not np.isfinite(h.sum()) else "finite")
    if finite:
        _check_finite(h, "layer {} output", 7)
    else:
        with pytest.raises(NumericError, match=r"^non-finite values in layer 7 output$"):
            _check_finite(h, "layer {} output", 7)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
@np.errstate(over="ignore", invalid="ignore")
def test_check_finite_names_the_splits_that_hold_a_non_finite_entry(n, width, splits, data):
    # a stacked layer output: split s in columns s*width:(s+1)*width
    h = data.draw(hnp.arrays(np.float64, (n, splits * width), elements=st.one_of(
        st.floats(-10, 10), st.sampled_from([_BIG, -_BIG, np.inf, -np.inf, np.nan]))))
    bad = [s for s in range(splits) if not np.isfinite(h[:, s * width:(s + 1) * width]).all()]
    event(f"{len(bad)} of {splits} splits non-finite")
    if not bad:
        _check_finite(h, "layer {} output", 3, splits=splits)
    else:
        with pytest.raises(NumericError, match=r"^non-finite values in layer 3 output$") as err:
            _check_finite(h, "layer {} output", 3, splits=splits)
        assert err.value.splits == bad


@np.errstate(over="ignore", invalid="ignore")
def test_check_finite_passes_a_finite_array_whose_sum_overflows():
    _check_finite(np.array([[1e308, 1e308]]), "layer {} output", 0)
    _check_finite(np.array([_BIG, _BIG, -_BIG]), "layer {} output", 0)
    with pytest.raises(NumericError, match="in graphsage layer output"):
        _check_finite(np.array([[np.inf, -np.inf]]), "{} layer output", "graphsage")


# values at every edge of float64: signed zeros, subnormals, the extremes, infinities and NaN
_EDGE_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
                                                       _BIG, -_BIG, np.inf, -np.inf, np.nan]))


def _workspace(n: int, width: int):
    return models._Workspace([LayerParams(W=np.empty((1, width)), b=np.empty(width))], n)


def _same_sums(got, want) -> bool:
    """Bit for bit, except that a NaN need only meet a NaN: where two NaNs meet, the kernel keeps the
    incoming one and numpy the running sum, so the sign of a NaN may differ."""
    nan = np.isnan(want)
    return np.array_equal(nan, np.isnan(got)) and got[~nan].tobytes() == want[~nan].tobytes()


@given(st.integers(1, 40), st.integers(2, 9), st.data())
@settings(max_examples=300, deadline=None)
@np.errstate(over="ignore", invalid="ignore")
def test_kernel_column_sum_is_numpys_column_reduce(n, width, data):
    # the backward's bias gradient: scipy's compiled product of the all-ones row, which adds the
    # rows in node order, against numpy's column reduce, for every width of two or more
    g = data.draw(hnp.arrays(np.float64, (n, width), elements=_EDGE_FLOATS))
    assert _same_sums(_workspace(n, width).column_sums(g), np.add.reduce(g, axis=0))


@given(st.integers(1, 40), st.integers(2, 5), st.integers(2, 4), st.data())
@settings(max_examples=200, deadline=None)
@np.errstate(over="ignore", invalid="ignore")
def test_stacked_column_sum_is_the_per_split_reduce(n, width, splits, data):
    # one column sum of the (n, S·d) buffer gives every split's bias gradient, as a reduce over
    # each split's (n, d) view does
    g = data.draw(hnp.arrays(np.float64, (n, splits * width), elements=_EDGE_FLOATS))
    want = np.add.reduce(models._split_view(g, splits), axis=-2).ravel()
    assert _same_sums(_workspace(n, splits * width).column_sums(g), want)


def test_one_column_bias_gradient_keeps_numpys_pairwise_sum():
    # numpy sums a lone contiguous column pairwise, and node order would lose the small terms
    # behind the leading 1.0: the bias gradient of a one-column buffer must stay numpy's sum
    n = 40
    upstream = np.full((n, 1), 2.0**-53)
    upstream[0] = 1.0
    spec = ModelSpec(arch="k_layer_gcn", k=1, activation="identity", norm="row")
    params = [LayerParams(W=np.ones((1, 1)), b=np.zeros(1))]
    grads, _ = model_backward(spec, from_edge_list([(i, (i + 1) % n) for i in range(n)], n), np.ones((n, 1)),
                              params, upstream)
    want = np.add.reduce(upstream, axis=0)
    assert want[0] != sum(upstream[:, 0].tolist())  # the two orders differ here
    assert grads[0].b.tobytes() == want.tobytes()


@st.composite
def backward_cases(draw, split_counts=st.sampled_from([1, 3]), in_widths=st.integers(1, 3),
                   layer_widths=st.sampled_from([1, 2, 3, 5])):
    """A model of any architecture with hand-made layer widths (unequal, and one column allowed), S splits of
    its records (S from ``split_counts``), and dropout masks for relu."""
    arch = draw(st.sampled_from(ARCHITECTURES))
    spec = ModelSpec(arch=arch, k=draw(st.integers(1, 4)), activation=draw(st.sampled_from(ACTIVATIONS)), norm="sym")
    n = draw(st.integers(2, 12))
    graph = from_edge_list(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)), n)
    kinds = spec.layer_kinds()
    widths = [draw(in_widths)] + [draw(layer_widths) for _ in kinds]
    splits = draw(split_counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = [[LayerParams(W=rng.standard_normal((d_in, d_out)), b=rng.standard_normal(d_out),
                            W0=rng.standard_normal((d_in, d_out)) if kind == "sage" else None)
                for kind, d_in, d_out in zip(kinds, widths, widths[1:])] for _ in range(splits)]
    masks = None
    if spec.activation == "relu" and draw(st.booleans()):
        masks = [(rng.random((n, splits * d)) < 0.6) / 0.6 for d in widths[1:-1]] + [None]
    x = rng.standard_normal((n, widths[0]))
    upstream = rng.standard_normal((n, splits * widths[-1]))
    return spec, graph, x, records, masks, upstream


def _per_array_norm(d) -> float:
    """The norm of one split's layer gradient, one array at a time: ``sqrt((W0² + W²) + b²)``."""
    norm2 = np.add.reduce(np.square(d.W), axis=None)
    if d.W0 is not None:
        norm2 = np.add.reduce(np.square(d.W0), axis=None) + norm2
    return float(np.sqrt(norm2 + np.add.reduce(np.square(d.b), axis=None)))


@given(backward_cases())
@settings(max_examples=200, deadline=None)
def test_grouped_gradient_norms_are_the_per_array_norms(case):
    spec, graph, x, records, masks, upstream = case
    splits = len(records)
    theta = np.stack([models.flat_gradients(r) for r in records])
    params = models._views(theta[0] if splits == 1 else theta, records[0])
    event(f"{spec.arch}, {splits} split(s){', masks' if masks else ''}")
    with np.errstate(over="ignore", invalid="ignore"):
        grads, norms = model_backward(spec, graph, x, params, upstream, hidden_masks=masks)
    flat = models.flat_gradients(grads) if splits == 1 else np.concatenate(
        [getattr(d, n).reshape(splits, -1) for d in grads for n in d.fields], axis=1)
    norms = np.atleast_2d(norms)
    assert norms.shape == (splits, len(records[0]))
    for s in range(splits):
        per_split = models._views(flat.reshape(splits, -1)[s], records[0])
        assert norms[s].tobytes() == np.array([_per_array_norm(d) for d in per_split]).tobytes()
    # the output layer's bias gradient is each split's column sum of the upstream gradient, in a lone split's order
    want = np.add.reduce(np.ascontiguousarray(models._split_view(upstream, splits)), axis=-2)
    assert grads[-1].b.tobytes() == want.tobytes()


@given(backward_cases(split_counts=st.sampled_from([2, 3, 5]), in_widths=st.integers(1, 8),
                      layer_widths=st.integers(1, 8)))
@settings(max_examples=150, deadline=None)
def test_stacked_backward_is_one_lone_backward_per_split(case):
    # every product and sum of a stacked backward adds a split's terms in a lone split's order, one-column
    # inputs, hidden layers and outputs included: each split's gradients and norms are its lone call's bytes
    spec, graph, x, records, masks, upstream = case
    splits = len(records)
    params = models._views(np.stack([models.flat_gradients(r) for r in records]), records[0])
    event(f"{spec.arch}, {splits} splits, {'one column' if 1 in (x.shape[1], upstream.shape[1] // splits) else 'wider'}")

    def lone(a, s):
        return None if a is None else np.ascontiguousarray(models._split_view(a, splits)[s])

    with np.errstate(over="ignore", invalid="ignore"):
        grads, norms = model_backward(spec, graph, x, params, upstream, hidden_masks=masks)
        for s, record in enumerate(records):
            want, want_norms = model_backward(spec, graph, x, record, lone(upstream, s),
                                              hidden_masks=masks and [lone(m, s) for m in masks])
            for d, w in zip(grads, want):
                for name in w.fields:
                    assert getattr(d, name)[s].reshape(getattr(w, name).shape).tobytes() == getattr(w, name).tobytes()
            assert norms[s].tobytes() == np.array(want_norms).tobytes()


@given(multigraphs(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_count_ladder_rungs_are_exact_powers(a, k_max):
    ladder, raw = count_ladder(a), hops._count_rungs(a)
    for k in range(1, k_max + 1):
        exact = _exact_power(a, k)
        msg = _overflow_message(exact)
        if msg is not None:
            with pytest.raises(CountOverflowError) as info:
                next(ladder)
            assert str(info.value) == msg
            return
        rung = next(ladder)
        assert np.array_equal(rung.to_dense().astype(object), exact)
        assert rung == mat_power_count(a, k)
        # the ladder carries every rung as canonical int64 CSR, whatever its density
        assert _is_count_csr(next(raw))
        event("dense rung" if 3 * rung.nnz >= 2 * a.n_rows**2 else "sparse rung")


def _is_count_csr(m) -> bool:
    """Whether ``m`` is canonical int64 scipy CSR: sorted indices, no repeats, no stored zero."""
    return sp.issparse(m) and m.format == "csr" and m.dtype == np.int64 and m.has_canonical_format and m.data.all()


def _powers_near_int64(k):
    """Counts whose k-th powers often land between 2**53 and int64."""
    return st.tuples(counts_with_empty_lines(top=2 ** (56 // k)), st.just(k))


@given(st.one_of(st.tuples(counts_with_empty_lines(), st.integers(1, 4)),
                 st.integers(1, 4).flatmap(_powers_near_int64)),
       st.sampled_from(NORM_SCHEMES), st.sampled_from(["one_layer_power_k", "hybrid_power_plus_linear"]))
@settings(max_examples=200, deadline=None)
def test_power_aggregation_is_the_normalized_exact_power(a_k, scheme, arch):
    a, k = a_k
    got = build_aggregation(ModelSpec(arch=arch, k=k, norm=scheme, propagation="forward"), a)
    exact = _exact_power(a, k)
    if max(exact.max(), 0) > _INT64_MAX:
        event("past int64")
        return
    event("counts within 2**53" if max(exact.max(), 0) <= 2**53 else "counts within int64")
    # not mat_power_count: its ladder raises when a rung below k leaves int64, though A^k fits
    want = normalize(from_dense(exact.astype(np.int64)), scheme)
    # positive operands: no cancellation, so the relative error measures the operator alone
    rng = np.random.default_rng(a.n_rows)
    x, g = 1.0 + rng.random((a.n_rows, 3)), 1.0 + rng.random((a.n_rows, 2))
    assert max_relative_error(got @ x, want.csr @ x) <= 1e-12
    assert max_relative_error(got.T @ g, want.csr.T @ g) <= 1e-12
    assert max_relative_error(got.to_scipy().toarray(), want.to_dense()) <= 1e-12
    assert got.zero_row_count == want.zero_row_count


def test_power_aggregation_past_float64_range():
    # a complete digraph with loops on 4 nodes and every edge 2**30 times: each degree of A^k is 2**(32 k), exactly
    a = from_dense(np.full((4, 4), 2**30, dtype=np.int64))
    for scheme in NORM_SCHEMES:
        for arch in ("one_layer_power_k", "hybrid_power_plus_linear"):
            agg = build_aggregation(ModelSpec(arch=arch, k=31, norm=scheme), a)  # degrees 2**992 fit
            assert agg.zero_row_count == 0 and np.isfinite(agg @ np.ones((4, 1))).all()
            with pytest.raises(NumericError, match=r"^A\^32 leaves float64 range"):
                build_aggregation(ModelSpec(arch=arch, k=32, norm=scheme), a)  # degrees 2**1024 do not


def _block_and_pair(mult):
    """A 20-node complete block with loops (every entry ``mult``) beside a 4<->1 bipartite pair.

    The rung nnz alternate 408 (odd k) and 417 (even k) of 625.
    """
    dense = np.zeros((25, 25), dtype=np.int64)
    dense[:20, :20] = mult
    dense[20:24, 24] = dense[24, 20:24] = 1
    return from_dense(dense)


@pytest.mark.parametrize("mult, first_overflow", [(1, 16), (2, 13)])
def test_count_ladder_is_exact_up_to_its_first_overflow(mult, first_overflow):
    # 20^15 leaves int64 at k = 16, from a rung of 408 entries; 2^13 * 20^12 at k = 13, from one of 417
    a = _block_and_pair(mult)
    ladder, raw = count_ladder(a), hops._count_rungs(a)
    for k in range(1, first_overflow):
        exact = _exact_power(a, k)
        rung, form = next(ladder), next(raw)
        assert rung.nnz == (417 if k % 2 == 0 else 408)
        assert _is_count_csr(form)
        assert np.array_equal(rung.to_dense().astype(object), exact)
        assert rung == from_dense(exact.astype(np.int64)) and rung.to_scipy().has_canonical_format
        assert rung == mat_power_count(a, k)
    msg = _overflow_message(_exact_power(a, first_overflow))
    assert msg is not None
    for advance in (lambda: next(ladder), lambda: mat_power_count(a, first_overflow)):
        with pytest.raises(CountOverflowError) as info:
            advance()
        assert str(info.value) == msg


@st.composite
def edge_products(draw, max_dim=5):
    """CSR operands whose product entries land on both sides of ``2**63 - 1``."""
    n, m, p = (draw(st.integers(1, max_dim)) for _ in range(3))
    near = st.one_of(st.just(0), st.integers(1, 3), st.integers(2**61, 2**62),
                     st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, _INT64_MAX // 2, _INT64_MAX]))
    x = draw(st.lists(near, min_size=n * m, max_size=n * m))
    y = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3]), min_size=m * p, max_size=m * p))
    as_csr = lambda vals, shape: sp.csr_matrix(np.array(vals, dtype=np.int64).reshape(shape))
    return as_csr(x, (n, m)), as_csr(y, (m, p))


@given(edge_products())
@settings(max_examples=300, deadline=None)
def test_count_matmul_matches_python_ints(pair):
    x, y = pair
    exact = x.toarray().astype(object) @ y.toarray().astype(object)
    msg = _overflow_message(exact)
    if msg is not None:
        with pytest.raises(CountOverflowError) as info:
            hops._count_matmul(x, y)
        assert str(info.value) == msg
    else:
        got = hops._count_matmul(x, y)
        assert got.has_canonical_format and not np.any(got.data == 0)
        assert np.array_equal(got.toarray().astype(object), exact)


def test_count_matmul_at_the_int64_edge():
    x = sp.csr_matrix(np.array([[2**62, 2**62 - 1], [2**62, 2**62]], dtype=np.int64))
    y = sp.csr_matrix(np.array([[1], [1]], dtype=np.int64))
    with pytest.raises(CountOverflowError, match=r"^walk count at \(1, 0\) exceeds 64-bit range \(9223372036854775808\)$"):
        hops._count_matmul(x, y)
    assert hops._count_matmul(x[:1], y).toarray().tolist() == [[_INT64_MAX]]


# ---------------------------------------------------------------------------
# one ladder per sweep template against the per-cell route


def _per_cell_rows(templates, ks, dataset, cfg, **split_kw):
    """Sweep rows the per-cell way: each cell builds its own aggregation and ``A^k``."""
    graph, x, labels = dataset
    splits = make_splits(labels, seed=cfg.seed, **split_kw)
    rows = []
    for template in templates:
        reach = _reach_adjacency(template, graph)
        for k in ks:
            spec = replace(template, k=k)
            runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
            try:
                dens = density(support_of(mat_power_count(reach, k)))
            except CountOverflowError:
                dens = density(mat_power_support(reach, k))
            merged = Metrics.merge(runs)
            rows.append(SweepRow(arch=spec.arch, k=k, norm=spec.norm, propagation=spec.propagation,
                                 acc_mean=merged.mean, acc_std=merged.std, density=dens,
                                 failures=len(failed)))
    return rows


def _heavy_multigraph():
    # every edge of the hybrid digraph repeated 2**20 times: A^3 leaves int64, reversed A^48 float64 range
    graph, x, labels = synthesize_dataset("hybrid", n=200, seed=2)
    heavy = SparseCountMatrix(graph.n_rows, graph.n_cols, graph.row_offsets, graph.col_indices,
                              graph.values * 2**20)
    return heavy, x, labels


@pytest.mark.parametrize("dataset, propagation, norm", [
    (lambda: synthesize_dataset("structure_only", n=60, seed=1), "bidirectional", "sym"),
    (lambda: synthesize_dataset("hybrid", n=200, seed=3), "forward", "row"),
    (_heavy_multigraph, "reverse", "dir"),
])
def test_sweep_rows_equal_the_per_cell_route(dataset, propagation, norm):
    data = dataset()
    templates = [ModelSpec(arch=a, k=1, hidden_width=4, norm=norm, propagation=propagation)
                 for a in ARCHITECTURES]
    cfg = TrainConfig(lr=0.05, dropout=0.2, max_epochs=4, early_stop_patience=2, lr_sched_patience=1, seed=3)
    ks = [4, 1, 2, 3] + ([48] if dataset is _heavy_multigraph else [])
    split_kw = dict(n_splits=2, per_class_train=2, per_class_val=2)
    rows = run_sweep(templates, ks, data, cfg, **split_kw)
    want = _per_cell_rows(templates, sorted(ks), data, cfg, **split_kw)
    assert repr(rows) == repr(want)  # repr: a failed cell's mean is nan
    if dataset is _heavy_multigraph:
        # k = 3 and 4 pass int64 and train; the degrees of A^48 leave float64 range
        assert [r.failures for r in rows if r.arch in ("one_layer_power_k", "hybrid_power_plus_linear")] \
            == [0, 0, 0, 0, 2] * 2


@st.composite
def csr_triples(draw, max_rows=7, max_cols=6):
    """Row offsets, columns and values of a CSR matrix whose rows may be unsorted or repeat a column.

    Each row is drawn as an arbitrary column list and then, with even odds,
    made canonical (sorted and distinct), so valid matrices are common.
    """
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(n_rows):
        cols = draw(st.lists(st.integers(0, n_cols - 1), max_size=4))
        rows.append(sorted(set(cols)) if draw(st.booleans()) else cols)
    offsets = np.cumsum([0] + [len(r) for r in rows])
    cols = [c for r in rows for c in r]
    values = draw(st.lists(st.integers(1, 5), min_size=len(cols), max_size=len(cols)))
    return n_rows, n_cols, offsets, cols, values


def _first_unsorted_row(offsets, cols):
    """Per-row reference for the strict-increase invariant."""
    for i in range(len(offsets) - 1):
        row = cols[offsets[i]:offsets[i + 1]]
        if any(b <= a for a, b in zip(row, row[1:])):
            return i
    return None


@given(csr_triples())
@settings(max_examples=200, deadline=None)
def test_strict_increase_check_matches_row_loop(triple):
    n_rows, n_cols, offsets, cols, values = triple
    bad = _first_unsorted_row(offsets, cols)
    if bad is None:
        a = SparseCountMatrix(n_rows, n_cols, offsets, cols, values)
        dense = np.zeros((n_rows, n_cols), dtype=np.int64)
        for i in range(n_rows):
            dense[i, cols[offsets[i]:offsets[i + 1]]] = values[offsets[i]:offsets[i + 1]]
        assert np.array_equal(a.to_dense(), dense)
    else:
        with pytest.raises(InputError, match=f"not strictly increasing in row {bad}$"):
            SparseCountMatrix(n_rows, n_cols, offsets, cols, values)


# ---------------------------------------------------------------------------
# whole-text table route against the line grammar

# every byte class the table route refuses, next to the ones it reads
_TABLE_ALPHABET = "019-\t \n\r#%_+x٣"
_BIG_IDS = st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 10**20, 10**18 - 1, 1 - 10**18, 10**18, -10**18])
# tokens the table route must read exactly or leave to the line grammar: a zero-padded id past 18 digits, a bare '-'
_ODD_TOKENS = st.sampled_from(["0000000000000000000007", "-0000000000000000000007", "-"])


def _edit(draw, text: str) -> str:
    """``text`` with, at even odds, one span replaced by a few characters of ``_TABLE_ALPHABET``."""
    if not draw(st.booleans()):
        return text
    lo = draw(st.integers(0, len(text)))
    hi = draw(st.integers(lo, min(len(text), lo + 3)))
    return text[:lo] + draw(st.text(_TABLE_ALPHABET, max_size=3)) + text[hi:]


@st.composite
def edge_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(_TABLE_ALPHABET, max_size=40))
    ids = st.integers(-3, 12) | _BIG_IDS | _ODD_TOKENS
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=8))
    # at even odds only tabs, spaces and newlines lie between the tokens, so the table route reads the text
    loose = draw(st.booleans())
    gaps = st.sampled_from(["\t", " ", " \t ", "\t\t"]) | st.text(" \t\r" if loose else " \t", min_size=1, max_size=2)
    lines = [f"{draw(gaps)[1:]}{s}{draw(gaps)}{d}" for s, d in pairs]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "1 - 2")
    if draw(st.booleans()):
        lines.insert(0, f"%nodes {draw(st.integers(0, 20) | st.integers(2**63 - 2, 2**63 + 1))}")
    ends = st.sampled_from(["\n", "\n", "\n\n"] + (["\r\n", "\r"] if loose else []))
    text = "".join(line + draw(ends) for line in lines)
    return _edit(draw, text[:-1] if draw(st.booleans()) else text)


@given(edge_texts(), st.sampled_from([1, 5, 1 << 20]))
@settings(max_examples=400, deadline=None)
def test_edge_array_agrees_with_the_line_grammar(text, block):
    try:
        pairs, declared = graphs.parse_edge_pairs(text)
        want = np.array(pairs, dtype=np.int64).reshape(-1, 2), declared
    except InputError as exc:
        want = exc
    with patch.object(graphs, "_TABLE_BLOCK", block):
        if isinstance(want, InputError):
            with pytest.raises(InputError) as got:
                graphs.edge_array(text, "line ")
            assert str(got.value) == str(want)
        else:
            edges, declared = graphs.edge_array(text, "line ")
            assert edges.dtype == np.int64 and np.array_equal(edges, want[0]) and declared == want[1]


# 0, ±1, ±9, ±10, ±10**j up to 10**18 and the int64 ends: every digit count, both signs
_WRITER_INTS = st.sampled_from([v for m in (0, 1, 9, 10, *(10**j for j in range(2, 19)), 2**63 - 1) for v in (m, -m)]
                               + [-2**63]) | st.integers(-2**63, 2**63 - 1)


@given(st.lists(st.tuples(_WRITER_INTS, _WRITER_INTS), max_size=12))
@settings(max_examples=300, deadline=None)
def test_int_lines_are_the_per_line_f_strings(rows):
    src, dst = np.array(rows, dtype=np.int64).reshape(-1, 2).T
    assert datasets._int_lines(src, dst) == "".join(f"{s}\t{d}\n" for s, d in rows)


@st.composite
def labelled_datasets(draw):
    """``(edges.tsv, labels.tsv)`` texts: a graph whose every node has an edge, and its labels.

    The labels come in node order or shuffled, and may be broken by a dropped
    or repeated line, a node named twice, an unknown node, or an edit from
    ``_TABLE_ALPHABET``.
    """
    n = draw(st.integers(1, 6))
    header = draw(st.booleans())
    ids = list(range(n)) if header else sorted(draw(st.sets(st.integers(-5, 40), min_size=n, max_size=n)))
    ring = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
    extra = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=6))
    edges = ([f"%nodes {n}"] if header else []) + [f"{s}\t{d}" for s, d in ring + extra]
    classes = draw(st.lists(st.integers(-3, 9) | _BIG_IDS, min_size=n, max_size=n))
    order = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
    lines = [f"{ids[i]}\t{classes[i]}" for i in order]
    fault = draw(st.sampled_from(["none", "drop", "repeat", "clash", "unknown", "edit"]))
    j = draw(st.integers(0, n - 1))
    if fault == "drop":
        del lines[j]
    elif fault == "repeat":
        lines.insert(j, lines[j])
    elif fault == "clash":  # n lines, one node twice
        lines[j] = lines[(j + 1) % n].split("\t")[0] + "\t0"
    elif fault == "unknown":
        lines[j] = f"{draw(st.integers(-5, 45).filter(lambda i: i not in ids))}\t0"
    text = "\n".join(lines) + "\n"
    return "\n".join(edges) + "\n", _edit(draw, text) if fault == "edit" else text


def _load_or_error(root):
    try:
        return load_dataset(root)
    except DatasetError as exc:
        return str(exc)


@given(labelled_datasets())
@settings(max_examples=200, deadline=None)
def test_label_table_agrees_with_node_rows(case):
    edges_text, labels_text = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "edges.tsv").write_text(edges_text, encoding="utf-8")
        (root / "labels.tsv").write_text(labels_text, encoding="utf-8")
        got = _load_or_error(root)
        with patch.object(datasets, "_label_column", lambda *args: None):
            want = _load_or_error(root)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.graph == want.graph and got.n_classes == want.n_classes and got.stats == want.stats
        assert np.array_equal(got.labels, want.labels)


# pieces of the config and features fuzz: a byte that is not UTF-8, non-finite
# words, Python's digit separator and signs and non-ASCII digits, beside
# pieces of well-formed text
_READER_TOKENS = [b"\xff", b"nan", b"inf", b"_", b"+", b"-", "\u0663".encode(), "\uff11".encode(),
                  b"0", b"1", b"7", b".", b",", b"=", b" ", b"\n", b"#"]


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _spliced(draw, text: bytes) -> bytes:
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_READER_TOKENS)) + text[at:]
    return text


@st.composite
def config_texts(draw):
    keys = st.sampled_from([*cli._CONFIG_KEYS, "epochs", ""])
    values = st.sampled_from(["0.05", "0", "3", "-2", "1e-3"]).map(str.encode)
    lines = [draw(keys).encode() + draw(st.sampled_from([b"=", b" = ", b""])) + draw(values)
             for _ in range(draw(st.integers(0, 4)))]
    return _spliced(draw, b"\n".join(lines))


@given(config_texts())
@settings(max_examples=300, deadline=None)
def test_config_reader_raises_only_input_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(text)
        argv = ["train", "--synth", "structure_only", "--n", "40", "--arch", "k_layer_gcn", "--splits", "1",
                "--config", str(path)]
        try:
            args = cli._parse(argv)
            cfg = cli._train_config(args)
        except InputError:
            bad = True
        else:
            assert np.isfinite([cfg.lr, cfg.l2]).all()
            bad = args.seed < 0
        event("rejected" if bad else "accepted")
        if bad:  # a valid config would train; a bad one stops before
            assert _quiet_main(argv) == 2


@st.composite
def feature_texts(draw):
    cells = st.sampled_from(["0", "1", "-2", "0.5", "+3", "1e2"])
    rows = [f"{node},{draw(cells)},{draw(cells)}".encode() for node in range(3)]
    return _spliced(draw, b"\n".join(rows) + b"\n")


@given(feature_texts())
@settings(max_examples=300, deadline=None)
def test_features_reader_raises_only_dataset_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "edges.tsv").write_text("%nodes 3\n0\t1\n1\t2\n2\t0\n", encoding="utf-8")
        (root / "labels.tsv").write_text("0\t0\n1\t1\n2\t0\n", encoding="utf-8")
        (root / "features.csv").write_bytes(text)
        try:
            bundle = load_dataset(root)
        except DatasetError:
            event("rejected")
            assert _quiet_main(["train", "--dataset", tmp, "--arch", "k_layer_gcn", "--splits", "1"]) == 2
        else:
            event("accepted")
            assert bundle.features.shape[0] == 3 and np.isfinite(bundle.features).all()


# bounded CLI argv: each subcommand with its required flags (one may be dropped) and a draw of
# its optional ones, with values that may be out of range, negative or non-finite; a train
# run stays at n <= 60 and at most 3 epochs. "@" stands for the example's directory.
_CYCLIC_GRAPH = "%nodes 7\n0\t1\n1\t2\n2\t0\n2\t3\n3\t3\n4\t5\n5\t4\n"
_SMALL_INT = st.integers(-2, 6).map(str)
_REAL = st.sampled_from(["0", "0.3", "1", "1.5", "-0.2", "1e-3", "nan", "inf", "-inf"])
_TRANSFORMS = {"--selfloops": None, "--symmetrize": None, "--reverse": None}
_MODEL = {"--k": st.integers(0, 3).map(str), "--hidden": st.integers(0, 4).map(str),
          "--act": st.sampled_from(ACTIVATIONS), "--norm": st.sampled_from(NORM_SCHEMES),
          "--prop": st.sampled_from(PROPAGATIONS)}
_N = {"--n": st.sampled_from(["-5", "0", "49", "50", "60"])}
_SYNTH = {**_N, "--noise": _REAL, "--feature-signal": _REAL}
_ARGV_SHAPES = {  # subcommand -> (required flags, optional flags); None marks a switch
    "analyze-loops": ({"--graph": st.just("@g.tsv"),
                       "--lemma": st.sampled_from(["self_loop", "two_node", "m_node", "dag"])},
                      {"--m": _SMALL_INT, "--kmax": _SMALL_INT, "--out": st.just("@loops.csv"), **_TRANSFORMS}),
    "density-curve": ({"--out": st.just("@density.csv")},
                      {"--graph": st.just("@g.tsv"), "--synth": st.sampled_from(cli.SYNTH_KINDS),
                       "--kmax": _SMALL_INT, **_N, **_TRANSFORMS}),
    "normalize": ({"--graph": st.just("@g.tsv"), "--norm": st.sampled_from(NORM_SCHEMES),
                   "--out": st.just("@w.csv")}, dict(_TRANSFORMS)),
    "synth": ({"--kind": st.sampled_from(cli.SYNTH_KINDS), "--out": st.just("@ds")}, dict(_SYNTH)),
    "gradcheck": ({"--arch": st.sampled_from(ARCHITECTURES)}, dict(_MODEL)),
    "train": ({"--synth": st.sampled_from(cli.SYNTH_KINDS), "--arch": st.sampled_from(ARCHITECTURES)},
              {**_MODEL, "--noise": _REAL, "--feature-signal": _REAL, "--lr": _REAL, "--l2": _REAL,
               "--dropout": _REAL, "--splits": st.integers(0, 2).map(str), "--paper-protocol": None,
               "--dedup": None}),
}
_TRAIN_BUDGET = {"--n": st.sampled_from(["50", "60"]), "--max-epochs": st.integers(1, 3).map(str),
                 "--early-stop-patience": st.integers(0, 1).map(str),
                 "--lr-sched-patience": st.integers(0, 2).map(str),
                 "--per-class-train": st.integers(1, 3).map(str), "--per-class-val": st.integers(1, 3).map(str)}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_ARGV_SHAPES)))
    required, optional = _ARGV_SHAPES[command]
    flags = [f for f in required if not draw(st.booleans())] if draw(st.integers(0, 9)) == 0 else list(required)
    flags += draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=5))
    if command == "train":  # never dropped, so no run goes past 3 epochs
        flags += list(_TRAIN_BUDGET)
    if command == "density-curve" and not {"--graph", "--synth"} & set(flags):
        flags.append(draw(st.sampled_from(["--graph", "--synth"])))
    argv = [command]
    for flag in flags:
        values = {**required, **optional, **_TRAIN_BUDGET}[flag]
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--seed=-1", "--seed=3", "--frobnicate", "stray"])))
    return argv


@given(cli_argvs())
@settings(max_examples=150, deadline=None)
def test_cli_argv_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "g.tsv").write_text(_CYCLIC_GRAPH, encoding="utf-8")
        try:
            code = _quiet_main([a.replace("@", f"{tmp}/") for a in argv])
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2
            code = "argparse"
    assert code in (0, 1, 2, "argparse")
    event(f"{argv[0]} exit {code}")
