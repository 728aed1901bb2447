import time
from itertools import islice

import numpy as np
import pytest
import scipy.sparse as sp

from hopscope import (
    CountOverflowError,
    InputError,
    LoopHypothesisError,
    ModelSpec,
    TrainConfig,
    WeightedAdjacency,
    add_self_loops,
    binomial_expansion_check,
    dag_profile,
    density,
    from_edge_list,
    make_splits,
    mat_power_count,
    mat_power_support,
    path_count_oracle,
    power_ladder,
    run_sweep,
    support_equal,
    support_of,
    support_periodicity,
    support_subset,
    symmetrize,
    synthesize_dataset,
    train_model,
    verify_loop_lemma,
)
from hopscope import hops
from hopscope.cli import main


def p3():
    return from_edge_list([(0, 1), (1, 2)], 3)


def k3():
    return from_edge_list([(i, j) for i in range(3) for j in range(3) if i != j], 3)


def random_digraph(rng, n, p=0.3, max_mult=1):
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.extend([(i, j)] * int(rng.integers(1, max_mult + 1)))
    return from_edge_list(edges, n)


# ---------------------------------------------------------------------------
# counting powers


def test_power_p3():
    sq = mat_power_count(p3(), 2)
    assert sq.nnz == 1
    assert sq.to_dense()[0, 2] == 1
    assert mat_power_count(p3(), 3).nnz == 0


def test_power_triangle_k3_closed_walks():
    cyc = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    cubed = mat_power_count(cyc, 3)
    assert np.array_equal(cubed.to_dense(), np.eye(3, dtype=np.int64))


def test_power_complete_digraph_squared():
    # expected values computed by the walk-enumeration oracle:
    # two 2-step returns per node (via each other node), one 2-step
    # route between distinct nodes
    sq = mat_power_count(k3(), 2)
    for i in range(3):
        for j in range(3):
            want = path_count_oracle(k3(), 2, i, j)
            assert sq.to_dense()[i, j] == want
    assert np.array_equal(sq.to_dense(), [[2, 1, 1], [1, 2, 1], [1, 1, 2]])


def test_power_zero_is_identity():
    a = random_digraph(np.random.default_rng(0), 5)
    assert np.array_equal(mat_power_count(a, 0).to_dense(), np.eye(5, dtype=np.int64))


def test_power_multiplicativity_random():
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = random_digraph(rng, int(rng.integers(2, 8)), max_mult=2)
        k1, k2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        left = mat_power_count(a, k1 + k2).to_dense()
        right = mat_power_count(a, k1).to_dense() @ mat_power_count(a, k2).to_dense()
        assert np.array_equal(left, right)


def test_power_overflow_raises():
    # complete digraph with loops on 4 nodes: entries of A^k are 4^(k-1)
    a = from_edge_list([(i, j) for i in range(4) for j in range(4)], 4)
    with pytest.raises(CountOverflowError):
        mat_power_count(a, 40)


def test_oracle_guards():
    with pytest.raises(InputError):
        path_count_oracle(random_digraph(np.random.default_rng(0), 13), 2, 0, 1)
    with pytest.raises(InputError):
        path_count_oracle(p3(), 7, 0, 1)


def test_oracle_multiplicity_product():
    a = from_edge_list([(0, 1), (0, 1), (1, 2)], 3)
    assert path_count_oracle(a, 2, 0, 2) == 2
    assert mat_power_count(a, 2).to_dense()[0, 2] == 2


def test_power_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        a = random_digraph(rng, n, p=0.35, max_mult=2)
        k = int(rng.integers(0, 5))
        powered = mat_power_count(a, k).to_dense()
        for i in range(n):
            for j in range(n):
                assert powered[i, j] == path_count_oracle(a, k, i, j)


# ---------------------------------------------------------------------------
# support patterns


def test_support_power_identity_and_empty():
    a = p3()
    assert mat_power_support(a, 0).rows == (1, 2, 4)
    assert mat_power_support(a, 3).nnz == 0


def test_support_power_matches_count_power():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_digraph(rng, 8, p=0.25)
        k = int(rng.integers(0, 7))
        assert support_equal(mat_power_support(a, k), support_of(mat_power_count(a, k)))


def test_subset_relations():
    a = add_self_loops(p3())
    s1 = mat_power_support(a, 1)
    s2 = mat_power_support(a, 2)
    assert support_subset(s1, s2)
    assert support_subset(s1, s1)
    empty = mat_power_support(p3(), 3)
    assert support_subset(empty, s1)
    assert not support_subset(s2, empty)


def test_subset_shape_mismatch():
    with pytest.raises(InputError):
        support_subset(support_of(p3()), support_of(from_edge_list([], 2)))


def test_density():
    assert density(p3()) == pytest.approx(2 / 9)
    assert density(mat_power_support(add_self_loops(from_edge_list([], 4)), 1)) == pytest.approx(4 / 16)


# ---------------------------------------------------------------------------
# loop inclusion checks


def test_self_loop_inclusion_requires_full_diagonal():
    with pytest.raises(LoopHypothesisError):
        verify_loop_lemma(p3(), "self_loop", 3)


def test_self_loop_inclusion_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = add_self_loops(random_digraph(rng, int(rng.integers(2, 12)), p=0.15))
        report = verify_loop_lemma(a, "self_loop", 5)
        assert report.all_hold


def test_two_node_inclusion_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = symmetrize(random_digraph(rng, int(rng.integers(2, 12)), p=0.15))
        if a.nnz == 0:
            continue
        report = verify_loop_lemma(a, "two_node", 5)
        assert report.all_hold


def test_two_node_requires_symmetric_support():
    with pytest.raises(LoopHypothesisError):
        verify_loop_lemma(p3(), "two_node", 3)


def test_m_node_inclusion_with_planted_cycle():
    rng = np.random.default_rng(8)
    for m in (3, 4, 5):
        for _ in range(10):
            n = int(rng.integers(m + 1, 12))
            base = random_digraph(rng, n, p=0.1)
            cyc = [(i, (i + 1) % m) for i in range(m)]
            a = from_edge_list(
                [(int(s), int(d)) for s, d in np.argwhere(base.to_dense() > 0)] + cyc, n
            )
            report = verify_loop_lemma(a, "m_node", 4, m=m)
            assert report.cycle is not None and len(report.cycle) == m
            assert report.all_hold


def test_m_node_requires_cycle():
    with pytest.raises(LoopHypothesisError):
        verify_loop_lemma(p3(), "m_node", 3, m=3)


def test_unrestricted_m_node_inclusion_is_false_in_general():
    # a 3-cycle plus a disjoint path: the path's pairs never touch the
    # cycle, so A^1 is not contained in A^4; the restricted check is.
    a = from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4)], 5)
    s1 = mat_power_support(a, 1)
    s4 = mat_power_support(a, 4)
    assert not support_subset(s1, s4)
    report = verify_loop_lemma(a, "m_node", 1, m=3)
    assert report.all_hold


def bidirected_k77():
    """Bipartite, so it has no odd cycle; proving that for m=9 takes millions of path extensions."""
    return symmetrize(from_edge_list([(i, 7 + j) for i in range(7) for j in range(7)], 14))


def test_cycle_search_gives_up_within_its_budget():
    start = time.perf_counter()
    with pytest.raises(InputError, match="cycle search for m=9 gave up after 1000000 extensions"):
        verify_loop_lemma(bidirected_k77(), "m_node", 2, m=9)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the power ladder


@pytest.fixture()
def products(monkeypatch):
    """Record every boolean product the ladder makes."""
    calls = []
    real = hops._bool_matmul

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(hops, "_bool_matmul", counting)
    return calls


def test_ladder_takes_one_product_per_step(products):
    a = k3()
    rungs = list(islice(power_ladder(a), 5))
    assert len(rungs) == 5 and len(products) == 4
    products.clear()
    mat_power_support(a, 6)
    assert len(products) == 5
    products.clear()
    mat_power_support(a, 0)
    mat_power_support(a, 1)
    assert products == []


@pytest.mark.parametrize("lemma, graph, m, shift", [
    ("self_loop", lambda: add_self_loops(p3()), None, 1),
    ("two_node", lambda: symmetrize(p3()), None, 2),
    ("m_node", lambda: from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], 4), 3, 3),
])
@pytest.mark.parametrize("k_max", [1, 4])
def test_loop_lemma_walks_one_ladder(products, lemma, graph, m, shift, k_max):
    verify_loop_lemma(graph(), lemma, k_max, m=m)
    assert len(products) == k_max + shift - 1


def test_cli_density_outputs_walk_one_ladder(products, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{i}\t{(i + 1) % 6}\n{i}\t{i}\n" for i in range(6)), encoding="utf-8")
    assert main(["density-curve", "--graph", str(path), "--kmax", "7", "--out", str(tmp_path / "d.csv")]) == 0
    assert len(products) == 6
    products.clear()
    assert main(["analyze-loops", "--graph", str(path), "--lemma", "self_loop", "--kmax", "6"]) == 0
    assert len(products) == 6
    products.clear()
    path.write_text("0\t1\n1\t2\n", encoding="utf-8")
    assert main(["analyze-loops", "--graph", str(path), "--lemma", "dag", "--kmax", "5"]) == 0
    assert len(products) == 4


def test_sweep_densities_walk_one_ladder_per_template(products):
    data = synthesize_dataset("structure_only", n=60, seed=1)
    templates = [ModelSpec(arch=a, k=1, hidden_width=4) for a in ("k_layer_gcn", "k_layer_gcn_selfloop")]
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, lr_sched_patience=1)
    rows = run_sweep(templates, [4, 1], data, cfg, n_splits=1, per_class_train=2, per_class_val=2)
    assert len(products) == 2 * 3
    for r in rows:
        a = data[0] if r.arch == "k_layer_gcn" else add_self_loops(data[0])
        assert r.density == density(support_of(mat_power_count(a, r.k)))


def test_power_sweep_walks_one_count_ladder(products, monkeypatch):
    counted = []
    real = hops._count_matmul
    monkeypatch.setattr(hops, "_count_matmul", lambda x, y: counted.append(1) or real(x, y))
    data = synthesize_dataset("structure_only", n=60, seed=1)
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, lr_sched_patience=1)
    rows = run_sweep([ModelSpec(arch="one_layer_power_k", k=1, hidden_width=4)], [2, 5], data, cfg,
                     n_splits=1, per_class_train=2, per_class_val=2)
    # rungs 1..5 of one ladder feed both cells' aggregations and densities
    assert (len(counted), len(products)) == (4, 0)
    assert [r.density for r in rows] == [density(support_of(mat_power_count(data[0], k))) for k in (2, 5)]


@pytest.mark.parametrize("epochs", [3, 20])
def test_train_model_aggregates_the_features_once_per_run(monkeypatch, epochs):
    graph, x, labels = synthesize_dataset("hybrid", n=200, seed=1)  # 12 features, hidden width 4
    feature_products = []
    to_scipy = WeightedAdjacency.to_scipy

    class Counting(sp.csr_matrix):
        def __matmul__(self, other):
            if isinstance(other, np.ndarray) and other.shape[1] == x.shape[1]:
                feature_products.append(1)
            return super().__matmul__(other)

    monkeypatch.setattr(WeightedAdjacency, "to_scipy", lambda self: Counting(to_scipy(self)))
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=4)
    cfg = TrainConfig(dropout=0.5, max_epochs=epochs, early_stop_patience=epochs - 1)
    (split,) = make_splits(labels, per_class_train=5, per_class_val=5, n_splits=1)
    m = train_model(spec, graph, x, labels, split, cfg)
    assert m.epochs_run == (epochs,)
    # one Â X serves every epoch's two forwards; the final model_forward test pass makes its own
    assert len(feature_products) == 2


def test_periodicity_stops_at_the_first_repeat(products):
    # support(A^4) == support(A^1) on a directed triangle: rungs 1..4, three products
    support_periodicity(from_edge_list([(0, 1), (1, 2), (2, 0)], 3), 50)
    assert len(products) == 3


# ---------------------------------------------------------------------------
# acyclic structure


def test_dag_profile_p3():
    prof = dag_profile(p3())
    assert prof.is_dag and prof.longest_path_len == 2
    assert prof.topo_order == (0, 1, 2)


def test_dag_profile_cycle_and_self_loop():
    assert not dag_profile(from_edge_list([(0, 1), (1, 2), (2, 0)], 3)).is_dag
    assert not dag_profile(from_edge_list([(0, 0)], 2)).is_dag


def _longest_path_exhaustive(a):
    # brute-force DFS over simple paths; usable only for tiny graphs
    n = a.n_rows
    succ = [a.row(i)[0].tolist() for i in range(n)]
    best = 0

    def walk(v, seen, length):
        nonlocal best
        best = max(best, length)
        for w in succ[v]:
            if w not in seen:
                walk(w, seen | {w}, length + 1)

    for v in range(n):
        walk(v, {v}, 0)
    return best


def _random_dag(rng, n):
    order = rng.permutation(n)
    edges = []
    for ii in range(n):
        for jj in range(ii + 1, n):
            if rng.random() < 0.25:
                edges.append((int(order[ii]), int(order[jj])))
    return from_edge_list(edges, n)


@pytest.mark.parametrize("seed", range(15))
def test_dag_longest_path_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    a = _random_dag(rng, int(rng.integers(2, 12)))
    prof = dag_profile(a)
    assert prof.is_dag
    h = prof.longest_path_len
    assert h == _longest_path_exhaustive(a)
    assert mat_power_count(a, h).nnz > 0 or h == 0
    assert mat_power_count(a, h + 1).nnz == 0


# ---------------------------------------------------------------------------
# eventual periodicity


def test_periodicity_single_undirected_edge():
    got = support_periodicity(from_edge_list([(0, 1), (1, 0)], 2), 10)
    assert (got.preperiod, got.period) == (1, 2)


def test_periodicity_directed_triangle():
    got = support_periodicity(from_edge_list([(0, 1), (1, 2), (2, 0)], 3), 10)
    assert (got.preperiod, got.period) == (1, 3)


def test_periodicity_nonbipartite_selflooped_reaches_one():
    rng = np.random.default_rng(3)
    a = add_self_loops(symmetrize(random_digraph(rng, 7, p=0.3)))
    got = support_periodicity(a, 30)
    assert got.period == 1


def test_periodicity_errors_and_saturation():
    with pytest.raises(InputError):
        support_periodicity(p3(), 10)  # nilpotent
    with pytest.raises(InputError):
        support_periodicity(k3(), 1)  # k_cap too small
    # a long directed cycle cannot repeat within a tiny k_cap
    cyc = from_edge_list([(i, (i + 1) % 9) for i in range(9)], 9)
    assert support_periodicity(cyc, 5) is None


# ---------------------------------------------------------------------------
# binomial identity


def test_binomial_trivial_and_nilpotent():
    assert binomial_expansion_check(p3(), 1)
    assert binomial_expansion_check(p3(), 3)


def test_binomial_random_digraphs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_digraph(rng, 10, p=0.2)
        assert binomial_expansion_check(a, 4)


# ---------------------------------------------------------------------------
# density growth


def test_density_nondecreasing_with_full_diagonal():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = add_self_loops(random_digraph(rng, 9, p=0.15))
        densities = [density(mat_power_support(a, k)) for k in range(1, 7)]
        assert densities == sorted(densities)


def test_density_k8_vs_k4_on_symmetrized_selflooped_synthetic():
    from hopscope import synthesize_dataset

    g, _, _ = synthesize_dataset("hybrid", n=200, seed=9)
    a = add_self_loops(symmetrize(g))
    d4 = density(mat_power_support(a, 4))
    d8 = density(mat_power_support(a, 8))
    assert 0 < d4 <= d8 <= 1
