import signal
import sys
import weakref
from itertools import islice

import numpy as np
import pytest
import scipy.sparse as sp

from hopscope import (
    CountOverflowError,
    InputError,
    LoopHypothesisError,
    ModelSpec,
    SparseCountMatrix,
    SplitSpec,
    SupportPattern,
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
    normalize_power,
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
from hopscope.models import _reach_adjacency


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


@pytest.mark.parametrize("call", [
    lambda: list(hops.support_nnz(k3(), [3, 2])),
    lambda: list(hops.support_nnz(k3(), [2, 2])),
    lambda: list(hops.support_nnz(k3(), [0])),
    lambda: mat_power_count(k3(), 2.5),
    lambda: mat_power_support(k3(), 2.5),
    lambda: binomial_expansion_check(k3(), 2.5),
    lambda: binomial_expansion_check(p3(), 2.5),  # nilpotent: no ladder overflows, so a missed check runs on
    lambda: path_count_oracle(k3(), 2.5, 0, 1),
    lambda: path_count_oracle(k3(), 2, 0.5, 1),
    lambda: support_periodicity(k3(), 2.5),
    lambda: verify_loop_lemma(add_self_loops(k3()), "self_loop", k_max=2.5),
    lambda: normalize_power(k3(), -1, "row"),
    lambda: verify_loop_lemma(k3(), "m_node", k_max=2, m=2.5),
    lambda: ModelSpec("k_layer_gcn", k=2.5),
    lambda: ModelSpec("k_layer_gcn", k="2"),
    lambda: ModelSpec("k_layer_gcn", k=2, hidden_width=1.5),
    lambda: make_splits(np.repeat([0, 1], 60), per_class_train=2.5),
    lambda: make_splits(np.repeat([0, 1], 60), per_class_val=2.5),
    lambda: make_splits(np.repeat([0, 1], 60), n_splits=1.5),
    lambda: make_splits(np.repeat([0, 1], 60), seed=1.5),
    lambda: SplitSpec(train=[0], val=[1], test=[2], seed=1.5),
    lambda: synthesize_dataset("hybrid", n=60.5, seed=0),
    lambda: synthesize_dataset("hybrid", n=60, seed=0.5),
    lambda: run_sweep([ModelSpec("k_layer_gcn", 1)], [1.5], synthesize_dataset("hybrid", n=60, seed=0),
                      TrainConfig(max_epochs=2, early_stop_patience=1)),
], ids=["descending", "repeated", "zero", "count", "support", "binomial", "binomial nilpotent", "oracle",
        "oracle node", "periodicity", "loop lemma", "normalize_power", "loop lemma m", "model k",
        "model k string", "model width", "splits train", "splits val", "splits count", "splits seed",
        "split seed", "synth n", "synth seed", "sweep k"])
def test_a_bad_index_raises_input_error(call):
    # a power a ladder has passed or never reaches, or any integer setting that is no integer or below
    # its bound, must raise at once; the alarm fails a call that hangs
    def hung(signum, frame):
        raise TimeoutError("the call did not return within 2 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(2)
    try:
        with pytest.raises(InputError, match=r"must be (an integer|at least \d+), got "):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    assert np.array_equal(mat_power_support(a, 0).to_dense(), np.eye(3, dtype=bool))
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


def test_cycle_search_gives_up_within_its_budget(monkeypatch):
    assert hops.CYCLE_SEARCH_BUDGET == 1_000_000
    monkeypatch.setattr(hops, "CYCLE_SEARCH_BUDGET", 500)
    extensions = []

    def count_extensions(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "extend" and frame.f_code.co_filename == hops.__file__:
            extensions.append(len(frame.f_locals["path"]))

    sys.setprofile(count_extensions)
    try:
        with pytest.raises(InputError, match="cycle search for m=9 gave up after 500 extensions"):
            verify_loop_lemma(bidirected_k77(), "m_node", 2, m=9)
    finally:
        sys.setprofile(None)
    # one call for the start node, then one per extension the budget allows, and none after it
    assert extensions.count(1) == 1 and len(extensions) == 1 + 500


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
    # the directed triangle's rungs never repeat in a row: one product per step
    ring = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    rungs = list(islice(power_ladder(ring), 5))
    assert len(rungs) == 5 and len(products) == 4
    products.clear()
    mat_power_support(ring, 6)
    assert len(products) == 5
    products.clear()
    # K3's rungs are full from k = 2: rung 3 repeats rung 2, a fixed point, and no later rung takes a product
    a = k3()
    rungs = list(islice(power_ladder(a), 5))
    assert len(rungs) == 5 and len(products) == 2 and rungs[2:] == [rungs[1]] * 3
    products.clear()
    mat_power_support(a, 6)
    assert len(products) == 2
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
    # rung 3 of the looped path repeats rung 2, so its later rungs take no product;
    # the other two graphs' rungs are periodic and never repeat in a row
    want = k_max + shift - 1
    assert len(products) == (min(want, 2) if lemma == "self_loop" else want)


@pytest.mark.parametrize("lemma, edges, m, shift", [
    ("self_loop", [(i, (i + 1) % 40) for i in range(40)] + [(i, i) for i in range(40)], None, 1),
    ("two_node", [(i, (i + d) % 40) for i in range(40) for d in (1, 39)], None, 2),
    ("m_node", [(i, (i + 1) % 40) for i in range(40)] + [(2, 0)], 3, 3),
])
def test_loop_lemma_holds_a_window_of_shift_plus_one_rungs(monkeypatch, lemma, edges, m, shift):
    # none of these ladders repeats a rung within 15 steps, so every rung is a new object
    ladder, refs, most = hops._rungs, [], []

    def watched(base):
        for rung in ladder(base):
            refs.append(weakref.ref(rung))
            most.append(sum(ref() is not None for ref in refs))
            yield rung

    monkeypatch.setattr(hops, "_rungs", watched)
    verify_loop_lemma(from_edge_list(edges, 40), lemma, 12, m=m)
    # the window's shift + 1 rungs and the one just made
    assert len(refs) == 12 + shift and max(most) == shift + 2


def test_cli_density_outputs_walk_one_ladder(products, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{i}\t{(i + 1) % 6}\n{i}\t{i}\n" for i in range(6)), encoding="utf-8")
    # the looped 6-ring's rung 5 is full and rung 6 repeats it: rungs 7 on take no product
    assert main(["density-curve", "--graph", str(path), "--kmax", "7", "--out", str(tmp_path / "d.csv")]) == 0
    assert len(products) == 5
    products.clear()
    assert main(["analyze-loops", "--graph", str(path), "--lemma", "self_loop", "--kmax", "6"]) == 0
    assert len(products) == 5
    products.clear()
    # the path's rung 3 is empty and rung 4 repeats it
    path.write_text("0\t1\n1\t2\n", encoding="utf-8")
    assert main(["analyze-loops", "--graph", str(path), "--lemma", "dag", "--kmax", "5"]) == 0
    assert len(products) == 3


def test_sweep_densities_walk_one_ladder_per_template(products):
    data = synthesize_dataset("structure_only", n=60, seed=1)
    templates = [ModelSpec(arch=a, k=1, hidden_width=4) for a in ("k_layer_gcn", "k_layer_gcn_selfloop")]
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, lr_sched_patience=1)
    rows = run_sweep(templates, [4, 1], data, cfg, n_splits=1, per_class_train=2, per_class_val=2)
    assert len(products) == 2 * 3
    for r in rows:
        a = data[0] if r.arch == "k_layer_gcn" else add_self_loops(data[0])
        assert r.density == density(support_of(mat_power_count(a, r.k)))


def test_power_sweep_makes_no_exact_product(products, monkeypatch):
    monkeypatch.setattr(hops, "_count_matmul", lambda x, y: pytest.fail("a power sweep made an exact product"))
    data = synthesize_dataset("structure_only", n=60, seed=1)
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, lr_sched_patience=1)
    rows = run_sweep([ModelSpec(arch="one_layer_power_k", k=1, hidden_width=4)], [2, 5], data, cfg,
                     n_splits=1, per_class_train=2, per_class_val=2)
    monkeypatch.undo()
    # rungs 1..5 of one boolean ladder give both cells' densities; their aggregations walk no ladder
    assert len(products) == 4
    assert [r.density for r in rows] == [density(support_of(mat_power_count(data[0], k))) for k in (2, 5)]


def test_power_sweep_converts_only_the_rungs_it_reads(monkeypatch):
    converted = []
    data = synthesize_dataset("structure_only", n=60, seed=1)
    real = SupportPattern._of
    monkeypatch.setattr(SupportPattern, "_of", lambda r: converted.append(real(r)) or converted[-1])
    monkeypatch.setattr(SparseCountMatrix, "_of", lambda r: pytest.fail("a power sweep built an exact power"))
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, lr_sched_patience=1)
    run_sweep([ModelSpec(arch="one_layer_power_k", k=1, hidden_width=4)], [2, 5], data, cfg,
              n_splits=1, per_class_train=2, per_class_val=2)
    monkeypatch.undo()
    # support_of(A) starts the ladder; rungs 2 and 5 are counted as they stand, and no rung becomes a pattern
    assert converted == [support_of(data[0])]


def test_structure_only_boolean_ladder_is_packed_from_rung_one(monkeypatch):
    graph, _, _ = synthesize_dataset("structure_only", n=400, seed=5)
    reach = _reach_adjacency(ModelSpec(arch="one_layer_power_k", k=1, propagation="bidirectional"), graph)
    # the nnz floor of A @ A: 159,600 of 160,000 cells
    assert hops._product_nnz_floor(reach.csr, reach.csr) == 159_600
    operands = []
    real = hops._bool_matmul
    monkeypatch.setattr(hops, "_bool_matmul", lambda x, y: operands.append(y) or real(x, y))
    base = support_of(reach).csr
    rungs = list(islice(hops._rungs(base), 4))
    # one bit a cell: 400 packed rows of 7 words undercut even rung 1's CSR at 5 bytes an entry
    assert 8 * 400 * 7 < 5 * base.nnz + 4 * 401
    assert all(isinstance(r, np.ndarray) and r.shape == (400, 7) and r.dtype == np.uint64 for r in rungs)
    # rung 2 is one product on packed rows, also through the public ladder: no CSR product is built and sorted
    mat_power_support(reach, 2)
    # rung 2 is full, so rung 3 repeats it and rung 4 takes no product
    assert len(operands) == 3
    assert all(isinstance(y, np.ndarray) for y in operands)


@pytest.mark.parametrize("entries, packed", [(239, False), (240, True)])
def test_a_boolean_rung_packs_once_its_bits_take_fewer_bytes_than_csr(entries, packed):
    # n = 100: packed rows take 100 rows * 2 words * 8 = 1,600 bytes, and CSR takes
    # 5 bytes an entry plus 4 * 101 of row offsets: 1,599 bytes at 239 entries, 1,604 at 240
    cells = np.random.default_rng(0).choice(100 * 100, size=entries, replace=False)
    a = from_edge_list(np.stack(np.divmod(cells, 100), axis=1), 100)
    rung = next(hops._rungs(support_of(a).csr))
    assert isinstance(rung, np.ndarray) == packed != sp.issparse(rung)
    assert hops._rung_nnz(rung) == entries
    assert mat_power_support(a, 1) == support_of(a)  # a packed rung unpacks to the same pattern


def test_binomial_check_reads_one_count_ladder(monkeypatch):
    counted = []
    real = hops._count_matmul
    monkeypatch.setattr(hops, "_count_matmul", lambda x, y: counted.append(1) or real(x, y))
    assert binomial_expansion_check(from_edge_list([(0, 1), (1, 2), (2, 0), (0, 2)], 3), 6)
    # (A + I)^6 and A^1..A^6 off one ladder each: 5 + 5 products (20 when each A^i was its own)
    assert len(counted) == 10


@pytest.mark.parametrize("epochs", [3, 20])
def test_train_model_aggregates_the_features_once_per_run(monkeypatch, epochs):
    graph, x, labels = synthesize_dataset("hybrid", n=200, seed=1)  # 12 features, hidden width 4
    feature_products = []
    product = WeightedAdjacency.__matmul__

    def counting(ahat, other):
        if other.shape[1] == x.shape[1]:
            feature_products.append(1)
        return product(ahat, other)

    monkeypatch.setattr(WeightedAdjacency, "__matmul__", counting)
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
    assert support_periodicity(k3(), 2**70) == support_periodicity(k3(), 10)  # a cap past sys.maxsize
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
