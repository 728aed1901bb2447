import numpy as np
import pytest

from hopscope import (
    add_self_loops,
    from_edge_list,
    gcn_canonical,
    mat_power_count,
    normalize,
    support_equal,
    support_of,
    symmetrize,
)
from hopscope.errors import InputError


def p3():
    return from_edge_list([(0, 1), (1, 2)], 3)


def random_digraph(rng, n, p=0.35):
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return from_edge_list(edges, n)


def test_row_scheme_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_digraph(rng, 7)
        w = normalize(a, "row").to_dense()
        sums = w.sum(axis=1)
        nonempty = np.diff(a.row_offsets) > 0
        assert np.allclose(sums[nonempty], 1.0, atol=1e-12)
        assert np.all(sums[~nonempty] == 0)


def test_sym_forced_example_single_looped_edge():
    a = add_self_loops(from_edge_list([(0, 1), (1, 0)], 2))
    w = normalize(a, "sym").to_dense()
    assert w == pytest.approx(np.full((2, 2), 0.5))


def test_isolated_node_degenerate_row_reported():
    a = from_edge_list([(0, 1)], 3)  # node 2 isolated
    for scheme in ("none", "row", "sym", "dir"):
        w = normalize(a, scheme)
        assert np.all(w.to_dense()[2] == 0)
        assert w.zero_row_count >= 1


def test_none_scheme_keeps_counts():
    a = from_edge_list([(0, 1), (0, 1), (1, 2)], 3)
    w = normalize(a, "none")
    assert np.array_equal(w.to_dense(), a.to_dense().astype(float))
    assert w.zero_row_count == 1  # last node has no out-edges


def test_dir_scheme_uses_in_and_out_degrees():
    # edge (0,1): weight 1/sqrt(in(0) * out(1)); build a graph where they differ
    a = from_edge_list([(0, 1), (2, 0), (3, 0), (1, 2), (1, 3)], 4)
    w = normalize(a, "dir").to_dense()
    # in-degree of 0 is 2, out-degree of 1 is 2
    assert w[0, 1] == pytest.approx(1 / np.sqrt(2 * 2))


def test_support_preserved_by_all_schemes():
    rng = np.random.default_rng(1)
    for scheme in ("none", "row", "sym", "dir"):
        a = random_digraph(rng, 8)
        w = normalize(a, scheme)
        assert np.array_equal(w.col_indices, a.col_indices)
        assert np.array_equal(w.row_offsets, a.row_offsets)
        assert np.all(np.isfinite(w.values))


def test_sym_on_symmetric_matrix_stays_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = symmetrize(random_digraph(rng, 7))
        w = normalize(a, "sym").to_dense()
        assert np.allclose(w, w.T, atol=1e-12)


def test_powered_matrix_normalized_by_its_own_degrees():
    a = symmetrize(p3())
    p2 = mat_power_count(a, 2)
    w = normalize(p2, "row").to_dense()
    sums = w.sum(axis=1)
    assert np.allclose(sums[np.diff(p2.row_offsets) > 0], 1.0)


def test_gcn_canonical_isolated_node_self_weight_one():
    a = from_edge_list([], 1)
    w = gcn_canonical(a).to_dense()
    assert w[0, 0] == pytest.approx(1.0)


def test_gcn_canonical_p3_middle_loop_weight():
    # symmetrized path: looped degrees are (2, 3, 2), so the middle
    # self-loop gets 1/3
    w = gcn_canonical(symmetrize(p3())).to_dense()
    assert w[1, 1] == pytest.approx(1 / 3)
    assert w[0, 0] == pytest.approx(1 / 2)
    assert w[0, 1] == pytest.approx(1 / np.sqrt(6))


def test_canonical_support_is_looped_support():
    rng = np.random.default_rng(3)
    a = random_digraph(rng, 6)
    w = gcn_canonical(a)
    assert support_equal(support_of(w), support_of(add_self_loops(a)))


def test_unknown_scheme_rejected():
    with pytest.raises(InputError):
        normalize(p3(), "minmax")


def test_direct_kernel_rejects_an_operand_of_the_wrong_shape():
    # the compiled kernel trusts its sizes, so a mismatch must stop before it reads past x
    w = normalize(p3(), "sym")
    for op in (w, w.T):
        for x in (np.ones((2, 3)), np.ones(4), np.ones((3, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="cannot multiply a 3x3 matrix"):
                op @ x
