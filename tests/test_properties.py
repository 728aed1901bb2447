"""Hypothesis-driven structural properties over arbitrary small digraphs."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopscope import (
    InputError,
    SparseCountMatrix,
    add_self_loops,
    degrees,
    from_edge_list,
    mat_power_count,
    mat_power_support,
    power_ladder,
    support_equal,
    support_of,
    support_subset,
    symmetrize,
    transpose,
)


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


@given(digraphs(max_nodes=6), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_count_powers_multiply(a, k1, k2):
    lhs = mat_power_count(a, k1 + k2).to_dense()
    rhs = mat_power_count(a, k1).to_dense() @ mat_power_count(a, k2).to_dense()
    assert np.array_equal(lhs, rhs)


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
