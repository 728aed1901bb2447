"""Hypothesis-driven structural properties over arbitrary small digraphs."""

import tempfile
from dataclasses import replace
from itertools import islice
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hopscope import (
    ARCHITECTURES,
    CountOverflowError,
    DatasetError,
    InputError,
    Metrics,
    ModelSpec,
    SparseCountMatrix,
    SupportPattern,
    SweepRow,
    TrainConfig,
    add_self_loops,
    count_ladder,
    degrees,
    density,
    from_dense,
    from_edge_list,
    load_dataset,
    make_splits,
    mat_power_count,
    mat_power_support,
    power_ladder,
    run_sweep,
    support_equal,
    support_of,
    support_subset,
    symmetrize,
    synthesize_dataset,
    transpose,
)
from hopscope import datasets, graphs, hops
from hopscope.models import _reach_adjacency
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


@given(digraphs_with_cycle(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_cycle_lhs_is_the_walks_through_the_cycle(case, k_max):
    a, cycle = case
    supports = [mat_power_support(a, t) for t in range(k_max + 1)]
    reach = _dense_reach(a, k_max)
    for k in range(1, k_max + 1):
        # (i, j) such that some t and some c on the cycle give A^t[i, c] > 0 and A^{k-t}[c, j] > 0
        want = np.zeros((a.n_rows, a.n_rows), dtype=bool)
        for t in range(k + 1):
            for c in cycle:
                want |= np.outer(reach[t][:, c], reach[k - t][c, :])
        assert np.array_equal(hops._cycle_lhs(supports, k, cycle).to_dense(), want)


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
    got = hops._first_extra(sp_p, sp_q)
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
def multigraphs(draw, max_nodes=6):
    """Small digraphs whose multiplicities are small or huge, so some powers leave int64."""
    n = draw(st.integers(1, max_nodes))
    mult = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(2**20, 2**40))
    dense = np.array(draw(st.lists(mult, min_size=n * n, max_size=n * n)), dtype=np.int64)
    return from_dense(dense.reshape(n, n))


@given(multigraphs(), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_count_ladder_rungs_are_exact_powers(a, k_max):
    ladder = count_ladder(a)
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
    # every edge of the hybrid digraph repeated 2**20 times: A^3 leaves int64
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
    ks = [4, 1, 2, 3]
    split_kw = dict(n_splits=2, per_class_train=2, per_class_val=2)
    rows = run_sweep(templates, ks, data, cfg, **split_kw)
    want = _per_cell_rows(templates, sorted(ks), data, cfg, **split_kw)
    assert repr(rows) == repr(want)  # repr: a failed cell's mean is nan
    if dataset is _heavy_multigraph:
        assert [r.failures for r in rows if r.arch in ("one_layer_power_k", "hybrid_power_plus_linear")] \
            == [0, 0, 2, 2] * 2


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
_BIG_IDS = st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 10**20])


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
    ids = st.integers(-3, 12) | _BIG_IDS
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=8))
    gaps = st.sampled_from(["\t", " ", " \t ", "\t\t"]) | st.text(" \t\r", min_size=1, max_size=2)
    lines = [f"{draw(gaps)[1:]}{s}{draw(gaps)}{d}" for s, d in pairs]
    if draw(st.booleans()):
        lines.insert(0, f"%nodes {draw(st.integers(0, 20) | st.integers(2**63 - 2, 2**63 + 1))}")
    ends = st.sampled_from(["\n", "\n", "\n\n", "\r\n", "\r"])
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
    except OverflowError:
        want = InputError("node id outside the 64-bit integer range")
    with patch.object(graphs, "_TABLE_BLOCK", block):
        if isinstance(want, InputError):
            with pytest.raises(InputError) as got:
                graphs.edge_array(text, "line ")
            assert str(got.value) == str(want)
        else:
            edges, declared = graphs.edge_array(text, "line ")
            assert edges.dtype == np.int64 and np.array_equal(edges, want[0]) and declared == want[1]


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
