import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hopscope import (
    CountOverflowError,
    InputError,
    SparseCountMatrix,
    SupportPattern,
    WeightedAdjacency,
    add_self_loops,
    degrees,
    from_dense,
    from_edge_list,
    graph_meta,
    normalize,
    parse_edge_list,
    support_of,
    symmetrize,
    transpose,
)
from hopscope import graphs
from hopscope.graphs import parse_edge_pairs


def p3():
    return from_edge_list([(0, 1), (1, 2)], 3)


def test_path_graph_construction():
    a = p3()
    assert a.nnz == 2
    assert np.array_equal(a.to_dense(), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_duplicate_edges_accumulate():
    a = from_edge_list([(0, 1), (0, 1)], 2)
    assert a.nnz == 1
    assert a.to_dense()[0, 1] == 2


def test_empty_graph():
    a = from_edge_list([], 4)
    assert a.nnz == 0
    assert np.array_equal(a.row_offsets, np.zeros(5, dtype=np.int64))


def test_endpoint_out_of_range():
    with pytest.raises(InputError):
        from_edge_list([(0, 3)], 3)
    with pytest.raises(InputError):
        from_edge_list([(-1, 0)], 3)


def test_add_self_loops_on_zero_matrix():
    a = add_self_loops(from_edge_list([], 2))
    assert np.array_equal(a.to_dense(), np.eye(2, dtype=np.int64))


def test_add_self_loops_is_additive():
    a = from_edge_list([(0, 0)], 2)
    looped = add_self_loops(a)
    assert looped.to_dense()[0, 0] == 2
    assert looped.to_dense()[1, 1] == 1


def test_add_self_loops_p3_entry_count():
    assert add_self_loops(p3()).nnz == 5  # 2 edges + 3 loops


def test_transpose_p3():
    t = transpose(p3())
    assert np.array_equal(t.to_dense(), [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_symmetrize_p3():
    s = symmetrize(p3())
    assert s.nnz == 4
    assert np.all(s.values == 1)


def test_symmetrize_doubles_self_loop():
    s = symmetrize(from_edge_list([(0, 0)], 1))
    assert s.to_dense()[0, 0] == 2


def test_degrees_p3():
    a = p3()
    assert degrees(a, "out").values.tolist() == [1, 1, 0]
    assert degrees(a, "in").values.tolist() == [0, 1, 1]


def test_degrees_triangle_cycle():
    a = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    assert degrees(a, "out").values.tolist() == [1, 1, 1]
    assert degrees(a, "in").values.tolist() == [1, 1, 1]


def test_degrees_count_multiplicity():
    a = from_edge_list([(0, 1), (0, 1)], 2)
    assert degrees(a, "out").values[0] == 2


@pytest.mark.parametrize("dense, kind, node, total", [
    ([[2**62, 2**62], [0, 0]], "out", 0, 2**63),
    ([[0, 2**62], [0, 2**62]], "in", 1, 2**63),
    ([[2**62] * 5] + [[0] * 5] * 4, "out", 0, 5 * 2**62),  # the int64 sum wraps back to a positive 2**62
    ([[0, 2**62], [0, 2**62 - 1]], "in", 1, 2**63 - 1),  # the largest degree that fits
])
def test_degrees_raise_instead_of_wrapping(dense, kind, node, total):
    a = from_dense(dense)
    if total < 2**63:
        assert degrees(a, kind).values.tolist()[node] == total
        return
    with pytest.raises(CountOverflowError, match=rf"^{kind}-degree of node {node} exceeds 64-bit range \({total}\)$"):
        degrees(a, kind)


def test_degree_total_is_an_exact_python_int():
    a = from_dense([[2**62, 2**62], [0, 0]])
    total = degrees(a, "in").total
    assert type(total) is int and total == 2**63
    assert degrees(from_dense([[1, 2], [0, 3]]), "out").total == 6


def test_constructor_copies_the_callers_arrays():
    ro, ci, v = np.array([0, 1]), np.array([0]), np.array([5])
    a = SparseCountMatrix(1, 1, ro, ci, v)
    for arr in (ro, ci, v):
        assert arr.flags.writeable
    v[0] = 2
    assert a.values.tolist() == [5] and not a.values.flags.writeable


def _random_graph(rng, n, p=0.3, max_mult=2):
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                edges.extend([(i, j)] * int(rng.integers(1, max_mult + 1)))
    return from_edge_list(edges, n)


@pytest.mark.parametrize("seed", range(20))
def test_structural_invariants_random(seed):
    rng = np.random.default_rng(seed)
    a = _random_graph(rng, int(rng.integers(1, 9)))
    assert transpose(transpose(a)) == a
    s = symmetrize(a)
    assert s == transpose(s)
    assert degrees(a, "in").total == degrees(a, "out").total == int(a.values.sum())
    looped = add_self_loops(a)
    diff = looped.to_dense() - np.eye(a.n_rows, dtype=np.int64)
    assert np.array_equal(diff, a.to_dense())


def test_graph_meta_flags():
    meta = graph_meta(symmetrize(p3()))
    assert meta.is_symmetric and not meta.has_self_loops
    meta2 = graph_meta(add_self_loops(p3()))
    assert meta2.has_self_loops and not meta2.is_symmetric


def test_from_dense_rejects_negative():
    with pytest.raises(InputError):
        from_dense([[0, -1], [0, 0]])


@pytest.mark.parametrize("dense, message", [
    ([[0.5, 1.7]], "entries must hold integers, got 0.5$"),
    ([[np.nan]], "entries must hold integers, got nan$"),
    ([[1, np.inf]], "entries must hold integers, got inf$"),
    ([["1"]], "entries must hold integers, got <U1 values$"),
    (np.array([[0, 2**64 - 1]], dtype=np.uint64), "entries must hold integers, got 18446744073709551615$"),
])
def test_from_dense_rejects_non_integers(dense, message):
    with pytest.raises(InputError, match=message):
        from_dense(dense)


@pytest.mark.parametrize("dense", [[[1, 2], [3]], [[0, [1]]]])
def test_from_dense_rejects_a_ragged_list(dense):
    with pytest.raises(InputError, match="entries must form a regular array"):
        from_dense(dense)


def test_from_dense_accepts_integral_floats_and_leaves_its_input_writable():
    dense = np.array([[0, 2], [1, 0]])
    assert from_dense(dense.astype(float)) == from_dense(dense) == from_edge_list([(0, 1), (0, 1), (1, 0)], 2)
    dense[0, 0] = 3


def test_symmetrize_raises_instead_of_wrapping():
    a = SparseCountMatrix(2, 2, [0, 1, 2], [1, 0], [2**62 + 5] * 2)
    with pytest.raises(CountOverflowError, match=rf"count at \(0, 1\) exceeds 64-bit range \({2**63 + 10}\)$"):
        symmetrize(a)
    edge = symmetrize(SparseCountMatrix(2, 2, [0, 1, 2], [1, 0], [2**62, 2**62 - 1]))
    assert edge.values.tolist() == [2**63 - 1] * 2


def test_add_self_loops_raises_instead_of_wrapping():
    with pytest.raises(CountOverflowError, match=rf"count at \(0, 0\) exceeds 64-bit range \({2**63}\)$"):
        add_self_loops(SparseCountMatrix(1, 1, [0, 1], [0], [2**63 - 1]))
    # the first wrapped entry in row-major order is named
    a = SparseCountMatrix(3, 3, [0, 1, 2, 3], [0, 1, 2], [1, 2**63 - 1, 2**63 - 1])
    with pytest.raises(CountOverflowError, match=r"count at \(1, 1\)"):
        add_self_loops(a)
    assert add_self_loops(SparseCountMatrix(1, 1, [0, 1], [0], [2**63 - 2])).values.tolist() == [2**63 - 1]


# ---------------------------------------------------------------------------
# one CSR idiom for count, weighted and pattern matrices


def _wrappers():
    a = from_edge_list([(0, 1), (0, 1), (1, 2), (2, 0), (2, 2)], 3)
    return [a, normalize(a, "sym"), support_of(a)]


@pytest.mark.parametrize("i", range(3), ids=["count", "weighted", "pattern"])
def test_wrapper_arrays_are_read_only_and_handed_out_without_copy(i):
    m = _wrappers()[i]
    for arr in (m.csr.indptr, m.csr.indices, m.csr.data, m.row_offsets, m.col_indices, m.values, *m.row(0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0
    with pytest.raises(ValueError):
        m.csr.data *= 2  # scipy's in-place calls raise too
    out = m.to_scipy()
    assert out is not m.csr and (out != m.csr).nnz == 0
    for got, held in ((out.indptr, m.csr.indptr), (out.indices, m.csr.indices), (out.data, m.csr.data)):
        assert np.shares_memory(got, held)
    assert m.row_offsets.dtype == m.col_indices.dtype == np.int64


@pytest.mark.parametrize("i", range(3), ids=["count", "weighted", "pattern"])
def test_equal_wrappers_hash_alike_whatever_the_index_dtype(i):
    m = _wrappers()[i]
    wide = sp.csr_matrix(m.csr, copy=True)
    wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
    twin = type(m)._of(wide) if not isinstance(m, WeightedAdjacency) else WeightedAdjacency(
        wide, m.scheme, m.zero_row_count)
    assert twin.csr.indices.dtype == np.int64 != m.csr.indices.dtype
    assert twin == m and hash(twin) == hash(m) and len({m, twin}) == 1
    assert m != _wrappers()[(i + 1) % 3]


def test_weighted_adjacency_compares_and_hashes_by_value_and_scheme():
    a = symmetrize(from_edge_list([(0, 1), (1, 2)], 3))
    assert normalize(a, "sym") == normalize(a, "sym")
    assert hash(normalize(a, "sym")) == hash(normalize(a, "sym"))
    assert normalize(a, "sym") != normalize(a, "row")
    assert normalize(a, "sym") != normalize(add_self_loops(a), "sym")


def test_weighted_adjacency_keeps_explicit_zeros():
    a = from_edge_list([(0, 1), (2, 1)], 3)  # nodes 0 and 2 have no in-edges, so "dir" zeroes their rows
    w = normalize(a, "dir")
    assert w.nnz == a.nnz == 2 and w.values.tolist() == [0.0, 0.0]
    assert np.array_equal(w.col_indices, a.col_indices) and np.array_equal(w.row_offsets, a.row_offsets)
    assert w.zero_row_count == 3
    assert w.values.tobytes() == np.zeros(2).tobytes()


def test_support_of_a_weighted_adjacency_drops_its_explicit_zeros():
    a = from_edge_list([(0, 1), (2, 1), (1, 0)], 3)  # node 2 has no in-edge: "dir" zeroes (2, 1)
    w = normalize(a, "dir")
    before = w.values.tobytes()
    assert support_of(w) == support_of(from_edge_list([(0, 1), (1, 0)], 3))
    assert w.nnz == 3 and w.values.tobytes() == before


def test_support_pattern_copies_what_it_is_given():
    given = sp.csr_matrix(np.array([[0, 2], [1, 0]]))
    p = SupportPattern(given)
    given.data[:] = 0
    assert p.nnz == 2 and given.data.flags.writeable
    with pytest.raises(InputError, match="square"):
        SupportPattern(sp.csr_matrix((2, 3)))


def test_parse_edge_list_with_header_and_comments():
    text = "# toy graph\n%nodes 4\n0\t1\n1\t2  # trailing comment\n"
    a = parse_edge_list(text)
    assert a.n_rows == 4
    assert a.nnz == 2


def test_parse_edge_list_infers_node_count():
    a = parse_edge_list("0\t5\n")
    assert a.n_rows == 6


def test_parse_edge_list_dedup_flag():
    text = "0\t1\n0\t1\n"
    assert parse_edge_list(text).to_dense()[0, 1] == 2
    assert parse_edge_list(text, dedup=True).to_dense()[0, 1] == 1


def test_parse_edge_list_malformed():
    with pytest.raises(InputError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(InputError):
        parse_edge_list("a\tb\n")
    with pytest.raises(InputError):
        parse_edge_list("%vertices 3\n")


# int() takes each of these; the edge-list grammar does not
LOOSE_INTEGERS = {"underscore": "1_000", "plus": "+5", "non-ascii": "\u0663"}


@pytest.mark.parametrize("form", LOOSE_INTEGERS)
@pytest.mark.parametrize("template, where", [
    ("%nodes {}\n0\t1\n", "line 1: bad header"),
    ("%nodes 2000\n0\t1\n{}\t0\n", "line 3: non-integer endpoint"),
    ("# comment\n0\t{}\n", "line 2: non-integer endpoint"),
])
def test_parse_edge_list_rejects_what_only_int_accepts(form, template, where):
    with pytest.raises(InputError, match=where):
        parse_edge_list(template.format(LOOSE_INTEGERS[form]))


def test_parse_edge_list_keeps_negative_ids_and_loose_comments():
    assert parse_edge_pairs("-3\t0\n") == ([(-3, 0)], None)
    # a comment holding '_', '+' or non-ASCII text leaves valid lines valid
    assert parse_edge_pairs("%nodes 12  # n_nodes + \u0663\n10\t-1\n") == ([(10, -1)], 12)


@pytest.mark.parametrize("block", range(1, 12))
def test_int_table_blocks_end_at_line_ends(monkeypatch, block):
    monkeypatch.setattr(graphs, "_TABLE_BLOCK", block)
    assert graphs._int_table("1 2 3 4\n", 2) is None  # one ragged line, whatever the cut
    assert graphs._int_table("1 2\n 3\t4\n\n-5  6", 2).tolist() == [[1, 2], [3, 4], [-5, 6]]
    assert graphs._int_table("", 2).shape == (0, 2)


# None leaves a text to the line grammar
@pytest.mark.parametrize("block", [1, 5, 1 << 20])
@pytest.mark.parametrize("text, table", [
    ("0000000000000000000007\t-0000000000000000000007\n", [[7, -7]]),  # zero-padded past 18 digits
    ("999999999999999999 -999999999999999999\n", [[10**18 - 1, 1 - 10**18]]),
    ("1000000000000000000\t-1000000000000000000", [[10**18, -10**18]]),
    ("9223372036854775807\t-9223372036854775808\n", [[2**63 - 1, -2**63]]),  # the int64 ends
    ("1 2\n0009223372036854775807 -009223372036854775808\n", [[1, 2], [2**63 - 1, -2**63]]),
    ("9223372036854775807\t9223372036854775808\n", None),  # outside int64
    ("0\t-9223372036854775809\n", None),
    ("1\t" + "9" * 5000 + "\n", None),  # past what int() reads
    ("0\t" + "0" * 5000 + "9223372036854775807\n", [[0, 2**63 - 1]]),
    ("1 - 2\n", None),  # a bare '-'
    ("3\t4\n1\t-", None),  # a '-' as the last byte of the last block
    ("3\t4\n1\t-\n", None),
], ids=["zero-padded", "18-digit", "19-digit", "int64-ends", "padded-ends", "past-max", "past-min", "5000-digit",
        "5000-zeros", "bare-minus", "minus-last", "minus-newline"])
def test_int_table_reads_exactly_or_leaves_the_text(monkeypatch, block, text, table):
    monkeypatch.setattr(graphs, "_TABLE_BLOCK", block)
    got = graphs._int_table(text, 2)
    assert (None if got is None else got.tolist()) == table


@pytest.mark.parametrize("block", [1, 5, 1 << 20])
@pytest.mark.parametrize("text", ["\n \t\n", " ", "\n\n  \n", "1 2\n\n \t\n", "\n \n3\t4"])
def test_int_table_skips_blank_blocks_without_warning(monkeypatch, block, text):
    monkeypatch.setattr(graphs, "_TABLE_BLOCK", block)  # np.fromstring reads a block with no token as one 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = graphs._int_table(text, 2)
    assert table.dtype == np.int64
    assert table.tolist() == [[int(t) for t in line.split()] for line in text.splitlines() if line.split()]


# ---------------------------------------------------------------------------
# constructor invariants


def csr(n_cols, rows):
    """A ``SparseCountMatrix`` whose row ``i`` stores ``rows[i]`` (columns, each value 1)."""
    offsets = np.cumsum([0] + [len(r) for r in rows])
    cols = [c for r in rows for c in r]
    return SparseCountMatrix(len(rows), n_cols, offsets, cols, [1] * len(cols))


@pytest.mark.parametrize("args, message", [
    ((-1, 2, [0], [], []), "n_rows must be at least 0, got -1$"),
    ((1, -2, [0, 0], [], []), "n_cols must be at least 0, got -2$"),
    (("2", 2, [0, 0, 0], [], []), "n_rows must be an integer, got '2'$"),
    ((2, 2.0, [0, 0, 0], [], []), "n_cols must be an integer, got 2.0$"),
    ((2, 2, [0, 0], [], []), r"length n_rows \+ 1"),
    ((1, 2, [1, 1], [], []), "non-decreasing from 0 to nnz"),
    ((1, 2, [0, 2], [0], [1]), "non-decreasing from 0 to nnz"),
    ((2, 2, [0, 2, 1], [0], [1]), "non-decreasing from 0 to nnz"),
    ((1, 2, [0, 1], [0], [1, 1]), "equal length"),
    ((1, 2, [0, 1], [2], [1]), "column index out of range"),
    ((1, 2, [0, 1], [-1], [1]), "column index out of range"),
    ((1, 2, [0, 1], [0], [0]), "values must be positive"),
    ((1, 2, [0, 1], [0], [-2]), "values must be positive"),
    ((1, 3, [0, 2], [2, 1], [1, 1]), "not strictly increasing in row 0$"),
    ((1, 2, [0, 1], [0.7], [1.9]), "col_indices must hold integers, got 0.7$"),
    ((1, 2, [0, 1], [0], [1.9]), "values must hold integers, got 1.9$"),
    ((1, 2, [0.0, 0.5], [0], [1]), "row_offsets must hold integers, got 0.5$"),
    ((1, 2, [0, 1], [0], [np.nan]), "values must hold integers, got nan$"),
    ((1, 2, [0, 1], [np.inf], [1]), "col_indices must hold integers, got inf$"),
    ((1, 2, [0, 1], [0], [2.0**64]), "values must hold integers"),
    ((1, 2, [0, 1], ["0"], [1]), "col_indices must hold integers, got <U1 values"),
    ((1, 2, [0, 1], [0], np.array([2**63], dtype=np.uint64)), "values must hold integers, got 9223372036854775808$"),
    ((1, 2, [0, 1], np.array([2**64 - 1], dtype=np.uint64), [1]),
     "col_indices must hold integers, got 18446744073709551615$"),
])
def test_constructor_rejects_each_broken_invariant(args, message):
    with pytest.raises(InputError, match=message):
        SparseCountMatrix(*args)


@pytest.mark.parametrize("bad", [[3, 1], [2, 2], [0, 3, 3]])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_unsorted_or_duplicate_columns_name_their_row(bad, where):
    rows = [[0, 2], [1, 3], [0, 1, 4], [2], [1, 4]]
    rows[where] = bad
    with pytest.raises(InputError, match=f"not strictly increasing in row {where}$"):
        csr(5, rows)


def test_first_offending_row_is_named_after_empty_rows():
    with pytest.raises(InputError, match="in row 3$"):
        csr(4, [[], [], [0, 1], [2, 1], [], [1, 1], []])


@pytest.mark.parametrize("rows", [
    [[2, 3], [0, 1], [1]],  # columns decrease across each row boundary
    [[], [], [1]],  # empty leading rows
    [[0, 2], [], []],  # empty trailing rows
    [[3], [], [0, 1], [], [], [2]],  # empty interior rows
    [[], [], []],
    [],
])
def test_constructor_accepts_valid_layouts(rows):
    a = csr(4, rows)
    assert a.nnz == sum(len(r) for r in rows)
    assert np.array_equal(a.csr.tocoo().row, [i for i, r in enumerate(rows) for _ in r])


def test_constructor_accepts_integral_floats():
    assert SparseCountMatrix(1, 2, [0.0, 1.0], [1.0], [2.0]) == SparseCountMatrix(1, 2, [0, 1], [1], [2])


def test_to_dense_scatters_multiplicities():
    a = SparseCountMatrix(3, 4, [0, 2, 2, 3], [0, 3, 1], [2, 5, 1])
    assert np.array_equal(a.to_dense(), [[2, 0, 0, 5], [0, 0, 0, 0], [0, 1, 0, 0]])


# ---------------------------------------------------------------------------
# edge intake


def test_from_edge_list_accepts_arrays_lists_and_generators():
    pairs = [(0, 1), (2, 0), (0, 1), (1, 1)]
    want = from_edge_list(pairs, 3)
    assert from_edge_list(np.array(pairs), 3) == want
    assert from_edge_list(np.array(pairs, dtype=np.int32), 3) == want
    assert from_edge_list((p for p in pairs), 3) == want
    assert from_edge_list([[float(s), float(d)] for s, d in pairs], 3) == want
    assert from_edge_list(np.zeros((0, 2), dtype=np.int64), 3) == from_edge_list([], 3)
    assert from_edge_list(iter(()), 3) == from_edge_list([], 3)


@pytest.mark.parametrize("edges, n_nodes, message", [
    ([(0.7, 1)], 3, "edge endpoints must hold integers, got 0.7$"),
    (np.array([[0, 1], [1, np.nan]]), 3, "edge endpoints must hold integers, got nan$"),
    ([("a", 1)], 3, "edge endpoints must hold integers, got <U21 values$"),
    ([(0, None)], 3, "edge endpoints must hold integers, got object values$"),
    (np.array([[0, 2**63]], dtype=np.uint64), 3, "edge endpoints must hold integers, got 9223372036854775808$"),
    ([(0, 1), (1,)], 3, r"\(src, dst\) pairs"),
    ([(0, 1, 2)], 3, r"\(src, dst\) pairs"),
    (5, 3, r"\(src, dst\) pairs"),
    ([(0, 1)], 2.5, "n_nodes must be an integer"),
    ([(0, 1)], "3", "n_nodes must be an integer"),
    ([(0, 3)], 3, r"out of range for n_nodes=3: \(0, 3\)$"),
])
def test_from_edge_list_rejects_malformed_input(edges, n_nodes, message):
    with pytest.raises(InputError, match=message):
        from_edge_list(edges, n_nodes)
