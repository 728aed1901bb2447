"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. Budgeted criteria assert their own wall-clock limits.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import hopscope as hs
from hopscope.models import relu_kink_risk
from hopscope.training import train_splits


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def random_digraph(rng, n, p=0.3, max_mult=1, ensure_cycle=False):
    edges = []
    if ensure_cycle:
        edges += [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.extend([(i, j)] * int(rng.integers(1, max_mult + 1)))
    return hs.from_edge_list(edges, n)


def _train_over_splits(spec, dataset, splits, cfg):
    """Test accuracies and majority baselines of every split, trained in lockstep; a failed split fails the test."""
    graph, x, labels = dataset
    runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
    if failed:
        raise failed[0][1]
    return np.array([m.accuracies[0] for m in runs]), np.array([m.majority_baselines[0] for m in runs])


# ---------------------------------------------------------------------------
# 1. path-count oracle equivalence


def test_c01_path_count_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    n_graphs = 200
    for _ in range(n_graphs):
        n = int(rng.integers(2, 11))
        a = random_digraph(rng, n, p=float(rng.uniform(0.05, 0.3)), max_mult=2)
        for k in range(5):
            powered = hs.mat_power_count(a, k).to_dense()
            for i in range(n):
                for j in range(n):
                    assert powered[i, j] == hs.path_count_oracle(a, k, i, j)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("01 path-count-oracle", f"({n_graphs} graphs, k<=4, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. loop-lemma suite


def test_c02_loop_lemma_suite():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(2, 14))
        a = hs.add_self_loops(random_digraph(rng, n, p=0.15))
        assert hs.verify_loop_lemma(a, "self_loop", 5).all_hold
    for _ in range(100):
        n = int(rng.integers(2, 14))
        a = hs.symmetrize(random_digraph(rng, n, p=0.15))
        if a.nnz == 0:
            a = hs.symmetrize(hs.from_edge_list([(0, 1)], n))
        assert hs.verify_loop_lemma(a, "two_node", 5).all_hold
    for idx in range(100):
        m = (3, 4, 5)[idx % 3]
        n = int(rng.integers(m + 1, 14))
        base = random_digraph(rng, n, p=0.1)
        edges = [(int(i), int(j)) for i, j in np.argwhere(base.to_dense() > 0)]
        edges += [(i, (i + 1) % m) for i in range(m)]
        a = hs.from_edge_list(edges, n)
        report = hs.verify_loop_lemma(a, "m_node", 5, m=m)
        assert report.all_hold
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("02 loop-lemma-suite", f"(3 families x 100 graphs, k<=5, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. DAG nilpotency


def _longest_path_exhaustive(a):
    succ = [a.row(i)[0].tolist() for i in range(a.n_rows)]
    best = 0

    def walk(v, seen, length):
        nonlocal best
        best = max(best, length)
        for w in succ[v]:
            if w not in seen:
                walk(w, seen | {w}, length + 1)

    for v in range(a.n_rows):
        walk(v, {v}, 0)
    return best


def test_c03_dag_nilpotency():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        order = rng.permutation(n)
        edges = [
            (int(order[i]), int(order[j]))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.25
        ]
        a = hs.from_edge_list(edges, n)
        prof = hs.dag_profile(a)
        assert prof.is_dag
        h = prof.longest_path_len
        assert h == _longest_path_exhaustive(a)
        assert hs.mat_power_count(a, h + 1).nnz == 0
        assert h == 0 or hs.mat_power_count(a, h).nnz > 0
    _report("03 dag-nilpotency", "(100 DAGs, topo DP vs exhaustive oracle)")


# ---------------------------------------------------------------------------
# 4. binomial identity


def test_c04_binomial_identity():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        a = random_digraph(rng, n, p=0.25, max_mult=2)
        for k in range(6):
            assert hs.binomial_expansion_check(a, k)
    _report("04 binomial-identity", "(50 graphs, k<=5, exact integers)")


# ---------------------------------------------------------------------------
# 5. linear-collapse equivalence


def test_c05_linear_collapse_and_sage_degenerations():
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 7))
        a = random_digraph(rng, n, p=float(rng.uniform(0.05, 0.25)))
        x = rng.standard_normal((n, 3))
        dims = [3] + [4] * (k - 1) + [2]
        params = [
            hs.LayerParams(W=rng.standard_normal((dims[i], dims[i + 1])), b=np.zeros(dims[i + 1]))
            for i in range(k)
        ]
        spec = hs.ModelSpec(arch="k_layer_gcn", k=k, hidden_width=4, activation="identity", norm="none")
        got = hs.model_forward(spec, a, x, params)
        want = hs.collapse_linear(a, x, params, k)
        assert hs.max_relative_error(got, want) < 1e-5

    # SAGE degenerations, exact
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = random_digraph(rng, n, p=0.3)
        ahat = hs.normalize(a, "row")
        h = rng.standard_normal((n, 3))
        w0 = rng.standard_normal((3, 2))
        w1 = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        mlp = hs.sage_layer_forward(ahat, h, hs.SageLayerParams(W0=w0, W1=np.zeros_like(w1), b=b), act="relu")
        assert np.array_equal(mlp, np.maximum(h @ w0 + b, 0))
        gcn = hs.sage_layer_forward(ahat, h, hs.SageLayerParams(W0=np.zeros_like(w0), W1=w1, b=b), act="relu")
        assert np.array_equal(gcn, hs.gcn_layer_forward(ahat, h, hs.LayerParams(W=w1, b=b), act="relu"))
    _report("05 linear-collapse", "(50 instances n<=50 k<=6 rel<1e-5; SAGE limits exact)")


# ---------------------------------------------------------------------------
# 6. gradient correctness


def test_c06_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for arch in hs.ARCHITECTURES:
        for k in (1, 3, 5):
            for seed in range(10):
                rng = np.random.default_rng(606 + 97 * seed + hash((arch, k)) % 1000)
                for _ in range(40):
                    a = random_digraph(rng, 8, p=0.25, ensure_cycle=True)
                    x = rng.standard_normal((8, 3))
                    spec = hs.ModelSpec(arch=arch, k=k, hidden_width=4, activation="relu", norm="sym")
                    params = hs.init_params(spec, 3, 3, rng)
                    params = [replace(p, b=0.5 * rng.standard_normal(p.b.shape)) for p in params]
                    if not relu_kink_risk(spec, a, x, params, tol=1e-3):
                        break
                upstream = rng.standard_normal((8, 3))
                err = hs.gradient_check(spec, a, x, params, upstream, step=1e-4)
                worst = max(worst, err)
                assert err < 1e-4, f"{arch} k={k} seed={seed}: {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("06 gradient-correctness", f"(5 arch x k in 1/3/5 x 10 seeds, worst {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. row-normalization degeneracy


def test_c07_row_norm_degeneracy():
    graph, x, labels = hs.synthesize_dataset("structure_only", n=400, seed=1)
    spec = hs.ModelSpec(arch="k_layer_gcn", k=3, hidden_width=16, activation="relu",
                        norm="row", propagation="reverse")
    rng = np.random.default_rng(707)
    params = hs.init_params(spec, 1, 4, rng)
    ahat = hs.build_aggregation(spec, graph)
    from hopscope.models import _forward_pass

    logits, caches = _forward_pass(spec, ahat.to_scipy(), x, params, None)
    for cache in caches:
        assert np.abs(cache["z"] - cache["z"][0]).max() < 1e-12
    assert np.abs(logits - logits[0]).max() < 1e-12

    splits = hs.make_splits(labels, n_splits=10, seed=0)
    cfg = hs.TrainConfig(lr=0.05, max_epochs=150, early_stop_patience=80, lr_sched_patience=40, seed=0)
    accs, bases = _train_over_splits(replace(spec, k=2), (graph, x, labels), splits, cfg)
    gap = abs(accs.mean() - bases.mean())
    assert gap <= 0.02
    _report("07 row-norm-degeneracy",
            f"(rows identical <1e-12; acc {accs.mean():.3f} vs majority {bases.mean():.3f})")


# ---------------------------------------------------------------------------
# 8. degree emergence


def test_c08_degree_emergence():
    # exact first-layer identity
    rng = np.random.default_rng(808)
    g = random_digraph(rng, 9, p=0.35)
    w = rng.standard_normal((1, 5))
    spec1 = hs.ModelSpec(arch="k_layer_gcn", k=1, activation="identity", norm="none")
    out = hs.model_forward(spec1, g, hs.uniform_features(9), [hs.LayerParams(W=w, b=np.zeros(5))])
    assert np.array_equal(out, hs.degree_features(g, "out") @ w)

    # 2-layer beats 1-layer by a clear margin on the structure-only task
    graph, x, labels = hs.synthesize_dataset("structure_only", n=400, seed=1)
    splits = hs.make_splits(labels, n_splits=10, seed=0)
    cfg = hs.TrainConfig(lr=0.05, max_epochs=500, early_stop_patience=250, lr_sched_patience=100, seed=0)
    spec = hs.ModelSpec(arch="k_layer_gcn", k=1, hidden_width=32, activation="relu",
                        norm="none", propagation="reverse")
    acc1, _ = _train_over_splits(spec, (graph, x, labels), splits, cfg)
    acc2, _ = _train_over_splits(replace(spec, k=2), (graph, x, labels), splits, cfg)
    assert acc2.mean() >= 0.90
    assert acc2.mean() - acc1.mean() >= 0.05
    _report("08 degree-emergence",
            f"(first layer exact; 2-layer {acc2.mean():.3f} vs 1-layer {acc1.mean():.3f})")


# ---------------------------------------------------------------------------
# 9. deep-sparse stability


def test_c09_deep_sparse_stability():
    start = time.monotonic()
    graph, x, labels = hs.synthesize_dataset("sparse_digraph_deep", n=400, seed=3)
    splits = hs.make_splits(labels, n_splits=10, seed=0)
    cfg = hs.TrainConfig(lr=0.005, max_epochs=600, early_stop_patience=250, lr_sched_patience=200, seed=0)
    spec = hs.ModelSpec(arch="k_layer_gcn", k=50, hidden_width=16, activation="identity",
                        norm="row", propagation="forward")
    deep, _ = _train_over_splits(spec, (graph, x, labels), splits, cfg)
    shallow, _ = _train_over_splits(replace(spec, k=2), (graph, x, labels), splits, cfg)
    elapsed = time.monotonic() - start
    assert abs(deep.mean() - shallow.mean()) <= 0.05
    assert elapsed < 600.0
    _report("09 deep-sparse-stability",
            f"(50-layer {deep.mean():.3f} vs 2-layer {shallow.mean():.3f}, {elapsed:.0f}s, no NaN)")


# ---------------------------------------------------------------------------
# 10. sweep shape


def test_c10_sweep_shape():
    dataset = hs.synthesize_dataset("hybrid", n=400, seed=5, feature_signal=0.6)
    cfg = hs.TrainConfig(lr=0.05, max_epochs=300, early_stop_patience=120, lr_sched_patience=60, seed=0)
    arches = [
        hs.ModelSpec(arch=a, k=1, hidden_width=8, activation="relu", norm="sym", propagation="forward")
        for a in ("k_layer_gcn", "one_layer_power_k", "hybrid_power_plus_linear")
    ]
    rows = hs.run_sweep(arches, range(1, 11), dataset, cfg, n_splits=10)
    assert all(r.failures == 0 for r in rows)
    series = {}
    for r in rows:
        series.setdefault(r.arch, []).append(r.acc_mean)
    drops = {arch: max(vals[0] - v for v in vals) for arch, vals in series.items()}
    assert drops["one_layer_power_k"] < drops["k_layer_gcn"]
    assert drops["one_layer_power_k"] < drops["hybrid_power_plus_linear"]
    _report("10 sweep-shape",
            "(max-drop red {one_layer_power_k:.3f} < blue {k_layer_gcn:.3f}, green {hybrid_power_plus_linear:.3f})".format(**drops))


# ---------------------------------------------------------------------------
# 11. CLI determinism


def _files_snapshot(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[p.relative_to(root).as_posix()] = p.read_bytes()
    return out


def test_c11_cli_determinism(tmp_path):
    from hopscope.cli import main

    graph_file = tmp_path / "g.tsv"
    lines = ["%nodes 6"] + [f"{i}\t{(i + 1) % 6}" for i in range(6)] + [f"{i}\t{i}" for i in range(6)]
    graph_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run_all(outdir):
        outdir.mkdir()
        ds = outdir / "ds"
        assert main(["synth", "--kind", "structure_only", "--n", "250", "--seed", "5",
                     "--out", str(ds)]) == 0
        assert main(["analyze-loops", "--graph", str(graph_file), "--lemma", "self_loop",
                     "--kmax", "4", "--seed", "5", "--out", str(outdir / "loops.csv")]) == 0
        assert main(["density-curve", "--synth", "hybrid", "--n", "200", "--kmax", "4",
                     "--seed", "5", "--out", str(outdir / "density.csv")]) == 0
        assert main(["normalize", "--graph", str(graph_file), "--norm", "sym",
                     "--out", str(outdir / "norm.csv")]) == 0
        assert main(["train", "--dataset", str(ds), "--arch", "k_layer_gcn", "--k", "1",
                     "--norm", "row", "--prop", "reverse", "--splits", "2",
                     "--max-epochs", "25", "--early-stop-patience", "15",
                     "--lr-sched-patience", "10", "--seed", "5",
                     "--out", str(outdir / "train.csv")]) == 0
        assert main(["sweep", "--dataset", str(ds), "--arches", "k_layer_gcn,one_layer_power_k",
                     "--kmax", "2", "--norm", "row", "--prop", "reverse", "--splits", "2",
                     "--max-epochs", "25", "--early-stop-patience", "15",
                     "--lr-sched-patience", "10", "--seed", "5",
                     "--out", str(outdir / "sweep.csv"),
                     "--density-out", str(outdir / "sweep_density.csv")]) == 0
        assert main(["gradcheck", "--arch", "graphsage", "--k", "2", "--seed", "5"]) == 0
        return _files_snapshot(outdir)

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"non-deterministic output: {name}"
    _report("11 cli-determinism", f"({len(first)} files byte-identical across reruns)")
