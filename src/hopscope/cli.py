"""Batch command-line interface.

Subcommands: analyze-loops, density-curve, normalize, train, sweep,
gradcheck, synth. Every subcommand prints its resolved configuration
first, sends human-readable text to stdout, and writes machine-readable
artifacts only to files. Exit codes: 0 success (including "hypothesis
not satisfied" reports), 1 a checked property failed, 2 bad input.

All randomness flows from ``--seed``, so reruns with the same flags
produce byte-identical output files. A ``--config`` file with flat
``key=value`` lines supplies defaults for the training knobs; explicit
flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np

from .datasets import (
    fmt_real,
    load_dataset,
    resolve_dataset_dir,
    save_dataset,
    save_matrix_csv,
    save_sweep_csv,
)
from .errors import HopscopeError, InputError, LoopHypothesisError
from .graphs import add_self_loops, from_edge_list, read_edge_list, symmetrize, transpose
from .hops import dag_profile, power_ladder, verify_loop_lemma
from .models import (
    ARCHITECTURES,
    ModelSpec,
    _propagated,
    finite_difference_gradients,
    flat_gradients,
    init_params,
    max_relative_error,
    model_backward,
    relu_kink_risk,
    uniform_features,
)
from .normalization import NORM_SCHEMES
from .training import Metrics, TrainConfig, make_splits, run_sweep, synthesize_dataset, train_splits

SYNTH_KINDS = ("structure_only", "hybrid", "sparse_digraph_deep")

_CONFIG_KEYS = {
    "lr": float,
    "l2": float,
    "dropout": float,
    "max_epochs": int,
    "early_stop_patience": int,
    "lr_sched_patience": int,
    "hidden": int,
    "splits": int,
    "seed": int,
}


def _print_config(args: argparse.Namespace):
    skip = {"func"}
    items = sorted((k, v) for k, v in vars(args).items() if k not in skip)
    print("resolved config: " + " ".join(f"{k}={v}" for k, v in items))


def _apply_config_file(args: argparse.Namespace, argv: list[str]):
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            value = kind(val)
        except ValueError:
            raise InputError(f"{path}:{lineno}: {key} needs a {kind.__name__}, got {val!r}") from None
        if key not in vars(args):
            continue  # key does not apply to this subcommand
        flag = "--" + key.replace("_", "-")
        if flag in argv or any(a.startswith(flag + "=") for a in argv):
            continue  # explicit flag wins
        setattr(args, key, value)


def _load_graph(args) -> "SparseCountMatrix":
    g = read_edge_list(args.graph) if args.graph else _resolve_data(args)[0]
    if getattr(args, "symmetrize", False):
        g = symmetrize(g)
    if getattr(args, "reverse", False):
        g = transpose(g)
    if getattr(args, "selfloops", False):
        g = add_self_loops(g)
    return g


def _resolve_data(args):
    if getattr(args, "dataset", None):
        bundle = load_dataset(resolve_dataset_dir(args.dataset), dedup=getattr(args, "dedup", False))
        x = bundle.features if bundle.features is not None else uniform_features(bundle.graph.n_rows)
        print(
            f"dataset {bundle.name}: nodes={bundle.stats.n_nodes} edges={bundle.stats.n_edges} "
            f"classes={bundle.stats.n_classes} %no-in={bundle.stats.pct_no_in:.1f} "
            f"%no-out={bundle.stats.pct_no_out:.1f}"
        )
        return bundle.graph, x, bundle.labels
    graph, x, labels = synthesize_dataset(
        args.synth, n=args.n, seed=args.seed,
        noise=getattr(args, "noise", 0.0),
        feature_signal=getattr(args, "feature_signal", 1.0),
    )
    return graph, x, labels


def _train_config(args) -> TrainConfig:
    if getattr(args, "paper_protocol", False):
        return TrainConfig.paper_protocol(lr=args.lr, l2=args.l2, dropout=args.dropout, seed=args.seed)
    return TrainConfig(
        lr=args.lr,
        l2=args.l2,
        dropout=args.dropout,
        max_epochs=args.max_epochs,
        early_stop_patience=args.early_stop_patience,
        lr_sched_patience=args.lr_sched_patience,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze_loops(args) -> int:
    _print_config(args)
    graph = _load_graph(args)
    if args.lemma == "dag":
        prof = dag_profile(graph)
        if not prof.is_dag:
            print("hypothesis not satisfied: graph has a cycle, no finite longest path")
            return 0
        h = prof.longest_path_len
        print(f"acyclic: longest path h={h}")
        rows, ok_all = [], True
        for k, dens, nnz in _density_curve(graph, max(args.kmax, h + 1)):
            consistent = (nnz == 0) == (k > h)
            ok_all = ok_all and consistent
            rows.append((k, dens, nnz, consistent))
            print(f"k={k:3d} nnz={nnz:6d} density={dens:.6f} consistent={consistent}")
        _write_analyze_csv(args.out, rows)
        print("dag nilpotency check:", "PASS" if ok_all else "FAIL")
        return 0 if ok_all else 1

    try:
        report = verify_loop_lemma(graph, args.lemma, args.kmax, m=args.m)
    except LoopHypothesisError as exc:
        print(f"hypothesis not satisfied: {exc}")
        return 0
    rows = []
    for check, (k, dens, nnz) in zip(report.checks, _density_curve(graph, args.kmax, report.nnz)):
        rows.append((k, dens, nnz, check.holds))
        extra = "" if check.holds else f"  counterexample={check.counterexample}"
        print(f"k={k:3d} nnz={nnz:6d} density={dens:.6f} holds={check.holds}{extra}")
    _write_analyze_csv(args.out, rows)
    if report.cycle is not None:
        print(f"checked against cycle {report.cycle}")
    print(f"{args.lemma} inclusion (shift +{report.shift}):", "PASS" if report.all_hold else "FAIL")
    return 0 if report.all_hold else 1


def _density_curve(graph, kmax: int, nnz=None) -> list[tuple[int, float, int]]:
    """``(k, density, nnz)`` of ``support(A^k)`` for k = 1..kmax.

    The nnz are read off one power ladder unless a caller that walked one already passes them.
    """
    nnz = [p.nnz for p in islice(power_ladder(graph), kmax)] if nnz is None else nnz
    n2 = graph.n_rows * graph.n_rows
    return [(k, c / n2 if n2 else 0.0, c) for k, c in enumerate(nnz, start=1)]


def _write_lines(out, lines):
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def _write_density_csv(out, curve):
    _write_lines(out, ["k,density,nnz"] + [f"{k},{fmt_real(dens)},{nnz}" for k, dens, nnz in curve])


def _write_analyze_csv(out, rows):
    if out:
        lines = [f"{k},{fmt_real(dens)},{nnz},{str(bool(holds)).lower()}" for k, dens, nnz, holds in rows]
        _write_lines(out, ["k,density,nnz,subset_holds"] + lines)


def cmd_density_curve(args) -> int:
    _print_config(args)
    if args.kmax < 1:
        raise InputError(f"--kmax must be at least 1, got {args.kmax}")
    curve = _density_curve(_load_graph(args), args.kmax)
    for k, dens, nnz in curve:
        print(f"k={k:3d} nnz={nnz:6d} density={dens:.6f}")
    _write_density_csv(args.out, curve)
    return 0


def cmd_normalize(args) -> int:
    _print_config(args)
    from .normalization import normalize

    graph = _load_graph(args)
    w = normalize(graph, args.norm)
    save_matrix_csv(w, args.out)
    print(f"normalized {graph.n_rows}x{graph.n_cols} matrix with scheme={args.norm}; "
          f"zero rows: {w.zero_row_count}")
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    _print_config(args)
    graph, x, labels = synthesize_dataset(
        args.kind, n=args.n, seed=args.seed, noise=args.noise, feature_signal=args.feature_signal
    )
    features = None if args.kind == "structure_only" else x
    save_dataset(graph, features, labels, args.out)
    from .datasets import dataset_stats

    st = dataset_stats(graph, labels)
    print(f"wrote {args.out}: nodes={st.n_nodes} edges={st.n_edges} classes={st.n_classes} "
          f"%no-in={st.pct_no_in:.1f} %no-out={st.pct_no_out:.1f}")
    return 0


def cmd_train(args) -> int:
    _print_config(args)
    graph, x, labels = _resolve_data(args)
    spec = ModelSpec(
        arch=args.arch, k=args.k, hidden_width=args.hidden,
        activation=args.act, norm=args.norm, propagation=args.prop,
    )
    cfg = _train_config(args)
    splits = make_splits(
        labels, per_class_train=args.per_class_train, per_class_val=args.per_class_val,
        n_splits=args.splits, seed=args.seed,
    )
    runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
    for si, exc in failed:
        print(f"split {si}: run failed ({exc})")
    merged = Metrics.merge(runs)
    print(f"test accuracy: mean={fmt_real(merged.mean)} std={fmt_real(merged.std)} "
          f"over {len(runs)} runs ({len(failed)} failures)")
    if runs:
        print(f"majority baseline mean={fmt_real(float(np.mean(merged.majority_baselines)))} "
              f"epochs_run={list(merged.epochs_run)}")
    if args.out:
        lines = ["split,accuracy,baseline,epochs_run,best_epoch"]
        for si, r in enumerate(runs):
            lines.append(
                f"{si},{fmt_real(r.accuracies[0])},{fmt_real(r.majority_baselines[0])},"
                f"{r.epochs_run[0]},{r.best_epochs[0]}"
            )
        _write_lines(args.out, lines)
    return 0 if runs else 1


def cmd_sweep(args) -> int:
    _print_config(args)
    graph, x, labels = _resolve_data(args)
    arch_names = [a.strip() for a in args.arches.split(",") if a.strip()]
    for a in arch_names:
        if a not in ARCHITECTURES:
            raise InputError(f"unknown architecture {a!r} (choices: {', '.join(ARCHITECTURES)})")
    templates = [
        ModelSpec(arch=a, k=1, hidden_width=args.hidden, activation=args.act,
                  norm=args.norm, propagation=args.prop)
        for a in arch_names
    ]
    cfg = _train_config(args)
    rows = run_sweep(templates, range(1, args.kmax + 1), (graph, x, labels), cfg,
                     n_splits=args.splits, per_class_train=args.per_class_train,
                     per_class_val=args.per_class_val)
    save_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    for r in rows:
        print(f"{r.arch:26s} k={r.k:2d} acc={r.acc_mean:.4f}±{r.acc_std:.4f} "
              f"density={r.density:.4f} failures={r.failures}")
    if args.density_out:
        _write_density_csv(args.density_out, _density_curve(_propagated(graph, args.prop), args.kmax))
    all_failed = all(r.failures > 0 and np.isnan(r.acc_mean) for r in rows)
    return 1 if (rows and all_failed) else 0


def cmd_gradcheck(args) -> int:
    _print_config(args)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    n, d, p_edge = 8, 3, 0.3
    spec = ModelSpec(arch=args.arch, k=args.k, hidden_width=args.hidden,
                     activation=args.act, norm=args.norm, propagation=args.prop)
    err = None
    for _ in range(25):
        mask = rng.random((n, n)) < p_edge
        np.fill_diagonal(mask, False)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
        graph = from_edge_list(edges, n)
        x = rng.standard_normal((n, d))
        params = init_params(spec, d, 3, rng)
        # random biases keep empty-aggregation rows away from the ReLU kink
        params = [replace(p, b=0.5 * rng.standard_normal(p.b.shape)) for p in params]
        if relu_kink_risk(spec, graph, x, params):
            continue
        upstream = rng.standard_normal((n, 3))
        analytic, _ = model_backward(spec, graph, x, params, upstream)
        numeric = finite_difference_gradients(spec, graph, x, params, upstream, step=1e-4)
        if args.corrupt:
            w = analytic[0].W.copy()
            w.flat[0] += 0.1 * max(1.0, np.abs(w).max())
            analytic[0] = replace(analytic[0], W=w)
        err = max_relative_error(flat_gradients(analytic), flat_gradients(numeric))
        break
    if err is None:
        raise InputError("could not draw a kink-free instance; try another seed")
    print(f"max relative gradient error: {err:.3e} (threshold 1e-4)")
    ok = err < 1e-4
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_data_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="dataset directory (or name under $HOPSCOPE_DATA_DIR)")
    src.add_argument("--synth", choices=SYNTH_KINDS, help="synthetic dataset kind")
    p.add_argument("--n", type=int, default=300, help="synthetic node count")
    p.add_argument("--noise", type=float, default=0.0, help="label noise for structure_only")
    p.add_argument("--feature-signal", dest="feature_signal", type=float, default=1.0)
    p.add_argument("--dedup", action="store_true", help="deduplicate repeated edges on load")


def _add_model_args(p: argparse.ArgumentParser, with_arch: bool = True, with_k: bool = True):
    if with_arch:
        p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    if with_k:
        p.add_argument("--k", type=int, default=2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--act", choices=("relu", "identity"), default="relu")
    p.add_argument("--norm", choices=NORM_SCHEMES, default="sym")
    p.add_argument("--prop", choices=("forward", "reverse", "bidirectional"), default="forward")


def _add_train_args(p: argparse.ArgumentParser):
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=300)
    p.add_argument("--early-stop-patience", dest="early_stop_patience", type=int, default=100)
    p.add_argument("--lr-sched-patience", dest="lr_sched_patience", type=int, default=40)
    p.add_argument("--paper-protocol", dest="paper_protocol", action="store_true",
                   help="use the full 1500-epoch budget with patience 410/80")
    p.add_argument("--splits", type=int, default=10)
    p.add_argument("--per-class-train", dest="per_class_train", type=int, default=20)
    p.add_argument("--per-class-val", dest="per_class_val", type=int, default=30)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopscope", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-loops", help="check pattern-inclusion laws for loop structures")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--lemma", required=True, choices=("self_loop", "two_node", "m_node", "dag"))
    p.add_argument("--m", type=int, default=None, help="cycle length for m_node")
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--selfloops", action="store_true", help="add self-loops before checking")
    p.add_argument("--symmetrize", action="store_true", help="symmetrize before checking")
    p.add_argument("--reverse", action="store_true", help="transpose the adjacency first")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_analyze_loops)

    p = sub.add_parser("density-curve", help="density of the k-step pattern for k=1..kmax")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--synth", choices=SYNTH_KINDS)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--feature-signal", dest="feature_signal", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--selfloops", action="store_true")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_density_curve)

    p = sub.add_parser("normalize", help="write a normalized adjacency as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--norm", required=True, choices=NORM_SCHEMES)
    p.add_argument("--selfloops", action="store_true")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("synth", help="write a synthetic dataset directory")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--feature-signal", dest="feature_signal", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model over random splits")
    _add_data_args(p)
    _add_model_args(p)
    _add_train_args(p)
    p.add_argument("--out", default=None, help="per-split results CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="accuracy/density sweep over architectures and k")
    _add_data_args(p)
    p.add_argument("--arches", required=True, help="comma-separated architecture names")
    p.add_argument("--kmax", type=int, default=5)
    _add_model_args(p, with_arch=False, with_k=False)
    _add_train_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--density-out", dest="density_out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    _add_model_args(p)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)  # negative-control hook
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv)
        return args.func(args)
    except (HopscopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
