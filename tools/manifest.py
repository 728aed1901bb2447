"""Print one ``sha256 label`` line per hopscope output, to check byte identity between two trees.

    python tools/manifest.py [--src PATH/TO/src] > manifest.txt

``--src`` picks the hopscope source to import (default: this checkout's
``src``), so one copy of this script can hash a parent commit and a change;
``diff`` of the two outputs then lists every output whose bytes moved.
Outputs covered: the CLI command sequence of the c11 determinism check
(exit code, stdout and stderr of each command, and every file it writes),
``normalize`` for the four schemes on a plain, a ``--selfloops`` and a
``--symmetrize`` graph, ``analyze-loops`` for the four lemmas (also on a
130-node ring and DAG whose boolean rungs cross the size line between CSR
and packed rows, with ``support_periodicity`` of that ring), a short
sweep of the two power architectures up to k = 15 (its walk counts pass
2**53 at k = 12 and int64 at k = 14; every cell applies its power by k
sparse products) and a short deep ``train``, each through the CLI and, with exact
float reprs, through the library, a short ``train`` that takes its
settings from a ``--config`` file, an abbreviated flag and
``--paper-protocol`` with explicit budget flags (its resolved config pins
their precedence), the library's ``normalize`` of large exact walk counts
(``count_ladder``) and the CSR arrays of those rungs up to k = 12 with
the overflow message at k = 13, ``build_aggregation(...) @ X`` of the power
architecture on the same graph, up to k = 50, the ``edges.tsv`` and
``labels.tsv`` bytes of a library ``save_dataset`` of a multigraph with
negative, sparse and 19-digit class ids, and the ``repr`` (with the CSR
arrays) of ``load_dataset`` on that directory and on a headerless copy,
the same for a 100,000-node graph whose ``edges.tsv`` spans several read
and write blocks,
the ``repr`` (with gradient-norm traces) of each split's Metrics from
``train_splits`` of two architectures over three splits, with dropout, l2
and early stopping that ends every run, the same of four splits of a
six-layer linear stack whose huge learning rate makes some forwards
overflow and some training losses diverge (without and with dropout),
with each failure's split, type, message and epoch, the same of three
splits of a uniform-feature model with hidden width 2 beside each
split's lone ``train_model`` run, and the gradient
bytes and layer norms of ``model_backward`` for every architecture (relu
with dropout masks), a model one column wide and an upstream gradient
with an all +0 and an all -0 column.
Uses only the standard library, numpy and hopscope; BLAS is pinned to one
thread before numpy loads. Runs in about 4 s on 2 cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

TRAIN_ARGS = ["--splits", "2", "--max-epochs", "25", "--early-stop-patience", "15",
              "--lr-sched-patience", "10", "--seed", "5"]
SMALL_SPLITS = ["--per-class-train", "10", "--per-class-val", "15"]  # n=200 has 50 nodes per class


def _emit(label: str, data: bytes):
    print(f"{hashlib.sha256(data).hexdigest()} {label}")


def _write_graph(path: Path, n: int, edges):
    path.write_text("\n".join([f"%nodes {n}"] + [f"{s}\t{d}" for s, d in edges]) + "\n", encoding="utf-8")


def _graphs(work: Path) -> dict[str, Path]:
    """The c11 ring with loops, a multigraph with a sink and an isolated node, and a DAG."""
    rng = random.Random(7)
    ring = [(i, (i + 1) % 6) for i in range(6)] + [(i, i) for i in range(6)]
    multi = [(i, (i + 1) % 38) for i in range(38)] + [(0, 1), (0, 1), (5, 0), (3, 1), (2, 0)]
    multi += [(rng.randrange(38), rng.randrange(38)) for _ in range(60)] + [(7, 38)]  # 38 is a sink, 39 isolated
    dag = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.3]
    paths = {"ring": work / "ring.tsv", "multi": work / "multi.tsv", "dag": work / "dag.tsv"}
    for (name, path), (n, edges) in zip(paths.items(), ((6, ring), (40, multi), (12, dag))):
        _write_graph(path, n, edges)
    return paths


def _cli(main, label: str, argv: list[str], files: list[str] = ()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    _emit(label, f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
    for name in files:
        path = Path(name)
        _emit(f"{label} {name}", path.read_bytes() if path.is_file() else b"<missing>")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the hopscope package to hash")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    from hopscope import (ARCHITECTURES, CountOverflowError, ModelSpec, TrainConfig, build_aggregation, count_ladder,
                          degree_features, from_edge_list, init_params, load_dataset, make_splits, model_backward,
                          normalize, read_edge_list, run_sweep, save_dataset, support_periodicity, symmetrize,
                          synthesize_dataset, train_model)
    from hopscope.cli import main as cli
    from hopscope.models import flat_gradients
    from hopscope.training import train_splits

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the temporary directory out of every output
        g = {name: str(path.relative_to(tmp)) for name, path in _graphs(Path(tmp)).items()}

        _cli(cli, "c11 synth", ["synth", "--kind", "structure_only", "--n", "250", "--seed", "5", "--out", "ds"],
             ["ds/edges.tsv", "ds/labels.tsv"])
        _cli(cli, "c11 analyze-loops", ["analyze-loops", "--graph", g["ring"], "--lemma", "self_loop", "--kmax", "4",
                                        "--seed", "5", "--out", "loops.csv"], ["loops.csv"])
        _cli(cli, "c11 density-curve", ["density-curve", "--synth", "hybrid", "--n", "200", "--kmax", "4",
                                        "--seed", "5", "--out", "density.csv"], ["density.csv"])
        _cli(cli, "c11 normalize", ["normalize", "--graph", g["ring"], "--norm", "sym", "--out", "norm.csv"],
             ["norm.csv"])
        _cli(cli, "c11 train", ["train", "--dataset", "ds", "--arch", "k_layer_gcn", "--k", "1", "--norm", "row",
                                "--prop", "reverse", *TRAIN_ARGS, "--out", "train.csv"], ["train.csv"])
        _cli(cli, "c11 sweep", ["sweep", "--dataset", "ds", "--arches", "k_layer_gcn,one_layer_power_k", "--kmax", "2",
                                "--norm", "row", "--prop", "reverse", *TRAIN_ARGS, "--out", "sweep.csv",
                                "--density-out", "sweep_density.csv"], ["sweep.csv", "sweep_density.csv"])
        _cli(cli, "c11 gradcheck", ["gradcheck", "--arch", "graphsage", "--k", "2", "--seed", "5"])

        Path("run.cfg").write_text("lr=0.05\nhidden=8\nmax_epochs=21\n", encoding="utf-8")
        _cli(cli, "train precedence", ["train", "--dataset", "ds", "--arch", "k_layer_gcn", "--norm", "row",
                                       "--prop", "reverse", "--splits", "2", "--seed", "5", "--config", "run.cfg",
                                       "--paper-protocol", "--max-ep", "25", "--early-stop-patience", "15",
                                       "--lr-sched", "10", "--out", "precedence.csv"], ["precedence.csv"])

        for scheme in ("none", "row", "sym", "dir"):
            for flag in ("", "--selfloops", "--symmetrize"):
                out = f"norm_{scheme}{flag.replace('-', '_')}.csv"
                _cli(cli, f"normalize {scheme} {flag or 'plain'}",
                     ["normalize", "--graph", g["multi"], "--norm", scheme, *filter(None, [flag]), "--out", out], [out])

        for lemma, extra, graph in (("self_loop", ["--selfloops"], "multi"), ("two_node", ["--symmetrize"], "multi"),
                                    ("m_node", ["--m", "3"], "multi"), ("dag", [], "dag")):
            _cli(cli, f"analyze-loops {lemma}", ["analyze-loops", "--graph", g[graph], "--lemma", lemma, *extra,
                                                 "--kmax", "6", "--out", f"{lemma}.csv"], [f"{lemma}.csv"])

        # 130 nodes take three words a packed row, and a rung packs past 519 entries: these ladders cross
        # that line, from CSR to packed rows (the ring) and back (the DAG's rungs shrink to nothing)
        rng130 = random.Random(130)
        ring130 = [(i, (i + 1) % 130) for i in range(130)] + [(2, 0)]
        ring130 += [(rng130.randrange(130), rng130.randrange(130)) for _ in range(40)]
        _write_graph(Path("ring130.tsv"), 130, ring130)
        _write_graph(Path("dag130.tsv"), 130, [(i, j) for i in range(130) for j in range(i + 1, 130)
                                               if rng130.random() < 0.05])
        for lemma, extra, graph in (("self_loop", ["--selfloops"], "ring130"), ("two_node", ["--symmetrize"], "ring130"),
                                    ("m_node", ["--m", "3"], "ring130"), ("dag", [], "dag130")):
            _cli(cli, f"analyze-loops {graph} {lemma}", ["analyze-loops", "--graph", f"{graph}.tsv", "--lemma", lemma,
                                                          *extra, "--kmax", "8", "--out", f"{lemma}130.csv"],
                 [f"{lemma}130.csv"])
        _emit("library support_periodicity ring130", repr(support_periodicity(read_edge_list("ring130.tsv"), 200)).encode())

        # bidirectional structure_only (n=200): walk counts pass 2**53 at k = 12 and int64 at k = 14
        _cli(cli, "sweep power", ["sweep", "--synth", "structure_only", "--n", "200", "--arches",
                                  "one_layer_power_k,hybrid_power_plus_linear", "--kmax", "15", "--norm", "sym",
                                  "--prop", "bidirectional", "--hidden", "8", "--lr", "0.05", *TRAIN_ARGS, *SMALL_SPLITS,
                                  "--out", "power.csv", "--density-out", "power_density.csv"],
             ["power.csv", "power_density.csv"])
        _cli(cli, "train deep", ["train", "--synth", "sparse_digraph_deep", "--n", "200", "--arch", "k_layer_gcn",
                                 "--k", "12", "--act", "identity", "--norm", "row", "--lr", "0.005", *TRAIN_ARGS, *SMALL_SPLITS,
                                 "--out", "deep.csv"], ["deep.csv"])

        # the multigraph with negative, sparse and 19-digit class ids; the headerless copy remaps
        # the endpoint ids and so leaves out the label of isolated node 39
        multi = read_edge_list(g["multi"])
        classes = [-2**63, -7, 0, 3, 10**18, 2**63 - 1, 42]
        save_dataset(multi, None, [classes[i * 3 % 7] for i in range(multi.n_rows)], "lib_ds")
        headerless = Path("lib_ds_headerless")
        headerless.mkdir()
        body = Path("lib_ds/edges.tsv").read_text(encoding="utf-8").partition("\n")[2]
        (headerless / "edges.tsv").write_text(body, encoding="utf-8")
        labels = Path("lib_ds/labels.tsv").read_text(encoding="utf-8").splitlines(True)[:39]
        (headerless / "labels.tsv").write_text("".join(labels), encoding="utf-8")
        for name in ("edges.tsv", "labels.tsv"):
            _emit(f"library save_dataset {name}", Path("lib_ds", name).read_bytes())
        for root in ("lib_ds", headerless):
            bundle = load_dataset(root)
            arrays = [arr.tolist() for arr in (bundle.graph.row_offsets, bundle.graph.col_indices, bundle.graph.values)]
            _emit(f"library load_dataset {root}", repr((bundle, arrays)).encode())

        # 200,000 edge lines (about 2.4 MB, so three 1 MiB read blocks and four 65,536-row write blocks);
        # the first write block of labels fits uint32, the second does not
        rng = np.random.default_rng(11)
        n = 100_000
        wide = from_edge_list(rng.integers(0, n, size=(200_000, 2)), n)
        classes = np.where(np.arange(n) < 65_536, rng.integers(0, 10, n), rng.integers(-2**40, 2**40, n))
        save_dataset(wide, None, classes, "wide_ds")
        for name in ("edges.tsv", "labels.tsv"):
            _emit(f"library save_dataset wide {name}", Path("wide_ds", name).read_bytes())
        bundle = load_dataset("wide_ds")
        arrays = [arr.tolist() for arr in (bundle.graph.row_offsets, bundle.graph.col_indices, bundle.graph.values)]
        _emit("library load_dataset wide_ds", repr((bundle, arrays, bundle.labels.tolist())).encode())

    # the rungs of the perfbench power_dense graph: row sums pass 2**53 from about k = 10, entries at
    # k = 11, and int64 at k = 13; one line hashes the CSR arrays of rungs 1..12 and rung 13's overflow
    graph = synthesize_dataset("structure_only", n=400, seed=5)[0]
    ladder, rung_arrays = count_ladder(symmetrize(graph)), hashlib.sha256()
    for k, rung in zip(range(1, 13), ladder):
        for arr in (rung.row_offsets, rung.col_indices, rung.values):
            rung_arrays.update(arr.tobytes())
        for scheme in ("none", "row", "sym", "dir"):
            w = normalize(rung, scheme)
            _emit(f"library normalize A^{k} {scheme}", w.values.tobytes() + repr(w.zero_row_count).encode())
    try:
        overflow = f"<rung 13 fits: {next(ladder).values.max()}>"
    except CountOverflowError as exc:
        overflow = str(exc)
    _emit("library count_ladder A^1..A^12 arrays and A^13 overflow", rung_arrays.digest() + overflow.encode())
    x = degree_features(graph)
    for k in [*range(1, 13), 50]:
        for scheme in ("none", "row", "sym", "dir"):
            agg = build_aggregation(ModelSpec(arch="one_layer_power_k", k=k, norm=scheme, propagation="bidirectional"),
                                    graph)
            _emit(f"library power aggregation A^{k} {scheme}", (agg @ x).tobytes() + repr(agg.zero_row_count).encode())

    cfg = TrainConfig(lr=0.05, max_epochs=25, early_stop_patience=15, lr_sched_patience=10, seed=5)
    dataset = synthesize_dataset("structure_only", n=200, seed=5)
    templates = [ModelSpec(arch=a, k=1, hidden_width=8, norm=norm, propagation="bidirectional")
                 for a in ("one_layer_power_k", "hybrid_power_plus_linear") for norm in ("sym", "dir")]
    _emit("library run_sweep power", repr(run_sweep(templates, range(1, 16), dataset, cfg, n_splits=2,
                                                                  per_class_train=10, per_class_val=15)).encode())
    graph, x, labels = synthesize_dataset("sparse_digraph_deep", n=200, seed=5)
    (split,) = make_splits(labels, per_class_train=10, per_class_val=15, n_splits=1, seed=5)
    for arch, k in (("k_layer_gcn", 12), ("k_layer_gcn_selfloop", 3), ("graphsage", 3), ("hybrid_power_plus_linear", 3)):
        spec = ModelSpec(arch=arch, k=k, activation="identity" if k == 12 else "relu", norm="row")
        m = train_model(spec, graph, x, labels, split, TrainConfig(lr=0.005, max_epochs=25, early_stop_patience=15,
                                                                  lr_sched_patience=10, dropout=0.2, seed=5))
        _emit(f"library train_model {arch} k={k}", repr((m.accuracies, m.epochs_run, m.best_epochs,
                                                         m.grad_norm_traces)).encode())
    # three splits trained together; early stopping ends every run, at different epochs
    splits = make_splits(labels, per_class_train=10, per_class_val=15, n_splits=3, seed=5)
    cfg = TrainConfig(lr=0.05, l2=1e-3, dropout=0.3, max_epochs=40, early_stop_patience=6, lr_sched_patience=3, seed=5)
    for arch in ("k_layer_gcn", "graphsage"):
        runs, failed = train_splits(ModelSpec(arch=arch, k=3, norm="row"), graph, x, labels, splits, cfg)
        for si, m in enumerate(runs):
            _emit(f"library train_splits {arch} split {si}", repr((m, m.grad_norm_traces)).encode())
        _emit(f"library train_splits {arch} failed", repr([(si, str(exc), exc.epoch) for si, exc in failed]).encode())
    # a 6-layer linear stack with a huge learning rate, without and with dropout: some splits'
    # forwards overflow, some splits' training losses diverge, and the rest stop early
    graph, x, labels = synthesize_dataset("hybrid", n=200, seed=3, feature_signal=0.6)
    splits = make_splits(labels, per_class_train=5, per_class_val=10, n_splits=4, seed=0)
    spec = ModelSpec(arch="k_layer_gcn", k=6, hidden_width=4, activation="identity", norm="row", propagation="forward")
    for label, config in (("lr=1e51", dict(lr=1e51, seed=0)), ("lr=5e50 dropout", dict(lr=5e50, dropout=0.3, seed=2))):
        cfg = TrainConfig(max_epochs=12, early_stop_patience=2, lr_sched_patience=5, **config)
        runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
        _emit(f"library train_splits diverging {label}",
              repr(([(m, m.grad_norm_traces) for m in runs],
                    [(si, type(exc).__name__, str(exc), exc.epoch) for si, exc in failed])).encode())
    # uniform (one-column) features under hidden layers two columns wide: three splits trained
    # together, and each split's lone train_model run with its spawned seed
    graph, x, labels = synthesize_dataset("structure_only", n=120, seed=3)
    splits = make_splits(labels, per_class_train=8, per_class_val=10, n_splits=3, seed=1)
    spec = ModelSpec(arch="k_layer_gcn", k=3, hidden_width=2, norm="sym")
    cfg = TrainConfig(lr=0.05, dropout=0.2, max_epochs=24, early_stop_patience=8, lr_sched_patience=4, seed=2)
    runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
    for si, m in enumerate(runs):
        _emit(f"library train_splits uniform width 2 split {si}", repr((m, m.grad_norm_traces)).encode())
    _emit("library train_splits uniform width 2 failed", repr([(si, str(exc), exc.epoch) for si, exc in failed]).encode())
    for si, split in enumerate(splits):
        seed = int(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, 17)).generate_state(1)[0])
        m = train_model(spec, graph, x, labels, split, replace(cfg, seed=seed))
        _emit(f"library train_model uniform width 2 split {si}", repr((m, m.grad_norm_traces)).encode())

    # one backward per architecture (relu, dropout masks), a model one column wide, and an
    # upstream gradient with an all +0 and an all -0 column: gradient bytes and layer norms
    graph, x, _ = synthesize_dataset("hybrid", n=200, seed=5)
    cases = [(arch, ModelSpec(arch=arch, k=3, hidden_width=8, norm="sym"), 4) for arch in ARCHITECTURES]
    cases.append(("k_layer_gcn one column", ModelSpec(arch="k_layer_gcn", k=3, hidden_width=1, norm="sym"), 1))
    cases.append(("k_layer_gcn signed zero columns", ModelSpec(arch="k_layer_gcn", k=3, norm="row"), 4))
    for label, spec, classes in cases:
        rng = np.random.default_rng(5)
        params = init_params(spec, x.shape[1], classes, rng)
        masks = [(rng.random((len(x), spec.hidden_width)) < 0.7) / 0.7 for _ in params[1:]] + [None]
        upstream = rng.standard_normal((len(x), classes))
        if label.endswith("signed zero columns"):
            upstream[:, 0], upstream[:, 1] = 0.0, -0.0
        grads, norms = model_backward(spec, graph, x, params, upstream, hidden_masks=masks)
        _emit(f"library model_backward {label}", flat_gradients(grads).tobytes() + repr(norms).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
