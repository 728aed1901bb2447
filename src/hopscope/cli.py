"""Batch command-line interface.

Subcommands: analyze-loops, density-curve, normalize, train, sweep,
gradcheck, synth. Every subcommand prints its resolved configuration
first, sends human-readable text to stdout, and writes machine-readable
artifacts only to files. Exit codes: 0 success (including "hypothesis
not satisfied" reports), 1 a checked property failed, 2 bad input.

All randomness flows from ``--seed``, so reruns with the same flags
produce byte-identical output files.

Every setting is resolved by argparse, first match wins: an explicit
flag (in any spelling argparse accepts, abbreviations included), the
``--paper-protocol`` budget (the epochs and patiences of
``TrainConfig.paper_protocol()``), a ``--config`` file of flat
``key=value`` lines, the built-in default. The protocol and the file
become the subcommand's defaults before argv is parsed again, so the
printed ``resolved config:`` is the configuration that runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .datasets import (SYNTH_KINDS, _plain_real, dataset_stats, fmt_real, load_dataset, resolve_dataset_dir,
                       save_dataset, save_matrix_csv, save_sweep_csv, synthesize_dataset)
from .errors import HopscopeError, InputError, LoopHypothesisError
from .graphs import _index, _plain, add_self_loops, content_lines, from_edge_list, read_edge_list, symmetrize, transpose
from .hops import dag_profile, support_nnz, verify_loop_lemma
from .models import (ARCHITECTURES, ModelSpec, _propagated, gradient_check, init_params, relu_kink_risk,
                     uniform_features)
from .normalization import NORM_SCHEMES, normalize
from .training import Metrics, TrainConfig, make_splits, run_sweep, train_splits

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

_PAPER_BUDGET = ("max_epochs", "early_stop_patience", "lr_sched_patience")


def _print_config(args: argparse.Namespace):
    items = sorted((k, v) for k, v in vars(args).items() if k != "func")
    print("resolved config: " + " ".join(f"{k}={v}" for k, v in items))


def _config_file(path) -> dict:
    """The typed ``key=value`` settings of a ``--config`` file; a later line wins."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path} is not UTF-8 text: {exc}") from None
    settings = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if not (_plain if kind is int else _plain_real)(val):
                raise ValueError(val)
            settings[key] = kind(val)
        except ValueError:
            raise InputError(f"{path}:{lineno}: {key} needs a {kind.__name__}, got {val!r}") from None
    return settings


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` once for ``--config`` and ``--paper-protocol``, then again with them as defaults."""
    args = build_parser().parse_args(argv)
    defaults = _config_file(args.config) if args.config else {}
    if getattr(args, "paper_protocol", False):  # only train and sweep have the flag
        protocol = TrainConfig.paper_protocol()
        defaults.update({key: getattr(protocol, key) for key in _PAPER_BUDGET})
    return build_parser(**defaults).parse_args(argv) if defaults else args


def _synthesize(args, kind: str):
    return synthesize_dataset(kind, n=args.n, seed=args.seed, noise=args.noise, feature_signal=args.feature_signal)


def _load_graph(args) -> "SparseCountMatrix":
    # a synthetic graph is drawn before its labels and features: --n and --seed fix it
    g = read_edge_list(args.graph) if args.graph else synthesize_dataset(args.synth, n=args.n, seed=args.seed)[0]
    if args.symmetrize:
        g = symmetrize(g)
    if args.reverse:
        g = transpose(g)
    if args.selfloops:
        g = add_self_loops(g)
    return g


def _resolve_data(args):
    if not args.dataset:
        return _synthesize(args, args.synth)
    bundle = load_dataset(resolve_dataset_dir(args.dataset), dedup=args.dedup)
    x = bundle.features if bundle.features is not None else uniform_features(bundle.graph.n_rows)
    print(f"dataset {bundle.name}: {_stats_line(bundle.stats)}")
    return bundle.graph, x, bundle.labels


def _stats_line(st) -> str:
    return (f"nodes={st.n_nodes} edges={st.n_edges} classes={st.n_classes} "
            f"%no-in={st.pct_no_in:.1f} %no-out={st.pct_no_out:.1f}")


def _model_spec(args, arch: str, k: int) -> ModelSpec:
    return ModelSpec(arch=arch, k=k, hidden_width=args.hidden, activation=args.act, norm=args.norm,
                     propagation=args.prop)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze_loops(args) -> int:
    graph = _load_graph(args)
    if args.lemma == "dag":
        kmax = _index(args.kmax, "--kmax", 1, sys.maxsize)
        prof = dag_profile(graph)
        if not prof.is_dag:
            print("hypothesis not satisfied: graph has a cycle, no finite longest path")
            return 0
        h = prof.longest_path_len
        print(f"acyclic: longest path h={h}")
        curve = _density_curve(graph, max(kmax, h + 1))
        holds = [(nnz == 0) == (k > h) for k, _, nnz in curve]
        notes = [f"consistent={ok}" for ok in holds]
        verdict = "dag nilpotency check:"
    else:
        try:
            report = verify_loop_lemma(graph, args.lemma, args.kmax, m=args.m)
        except LoopHypothesisError as exc:
            print(f"hypothesis not satisfied: {exc}")
            return 0
        curve = _density_curve(graph, args.kmax, report.nnz)
        holds = [c.holds for c in report.checks]
        notes = [f"holds={c.holds}" + ("" if c.holds else f"  counterexample={c.counterexample}")
                 for c in report.checks]
        cycle = "" if report.cycle is None else f"checked against cycle {report.cycle}\n"
        verdict = f"{cycle}{args.lemma} inclusion (shift +{report.shift}):"
    for (k, dens, nnz), note in zip(curve, notes):
        print(f"k={k:3d} nnz={nnz:6d} density={dens:.6f} {note}")
    if args.out:
        lines = [f"{k},{fmt_real(dens)},{nnz},{str(bool(ok)).lower()}" for (k, dens, nnz), ok in zip(curve, holds)]
        _write_lines(args.out, ["k,density,nnz,subset_holds"] + lines)
    print(verdict, "PASS" if all(holds) else "FAIL")
    return 0 if all(holds) else 1


def _density_curve(graph, kmax: int, nnz=None) -> list[tuple[int, float, int]]:
    """``(k, density, nnz)`` of ``support(A^k)`` for k = 1..kmax.

    The nnz are counted off one boolean ladder's rungs unless a caller that walked one already passes them.
    """
    nnz = list(support_nnz(graph, range(1, kmax + 1))) if nnz is None else nnz
    n2 = graph.n_rows * graph.n_rows
    return [(k, c / n2 if n2 else 0.0, c) for k, c in enumerate(nnz, start=1)]


def _write_lines(out, lines):
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def _write_density_csv(out, curve):
    _write_lines(out, ["k,density,nnz"] + [f"{k},{fmt_real(dens)},{nnz}" for k, dens, nnz in curve])


def cmd_density_curve(args) -> int:
    kmax = _index(args.kmax, "--kmax", 1, sys.maxsize)
    curve = _density_curve(_load_graph(args), kmax)
    for k, dens, nnz in curve:
        print(f"k={k:3d} nnz={nnz:6d} density={dens:.6f}")
    _write_density_csv(args.out, curve)
    return 0


def cmd_normalize(args) -> int:
    graph = _load_graph(args)
    w = normalize(graph, args.norm)
    save_matrix_csv(w, args.out)
    print(f"normalized {graph.n_rows}x{graph.n_cols} matrix with scheme={args.norm}; "
          f"zero rows: {w.zero_row_count}")
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    graph, x, labels = _synthesize(args, args.kind)
    features = None if args.kind == "structure_only" else x
    save_dataset(graph, features, labels, args.out)
    print(f"wrote {args.out}: {_stats_line(dataset_stats(graph, labels))}")
    return 0


def cmd_train(args) -> int:
    graph, x, labels = _resolve_data(args)
    spec = _model_spec(args, args.arch, args.k)
    cfg = _train_config(args)
    splits = make_splits(labels, per_class_train=args.per_class_train, per_class_val=args.per_class_val,
                         n_splits=args.splits, seed=args.seed)
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
            lines.append(f"{si},{fmt_real(r.accuracies[0])},{fmt_real(r.majority_baselines[0])},"
                         f"{r.epochs_run[0]},{r.best_epochs[0]}")
        _write_lines(args.out, lines)
    return 0 if runs else 1


def cmd_sweep(args) -> int:
    kmax = _index(args.kmax, "--kmax", 1, sys.maxsize)
    graph, x, labels = _resolve_data(args)
    arch_names = [a.strip() for a in args.arches.split(",") if a.strip()]
    for a in arch_names:
        if a not in ARCHITECTURES:
            raise InputError(f"unknown architecture {a!r} (choices: {', '.join(ARCHITECTURES)})")
    templates = [_model_spec(args, a, 1) for a in arch_names]
    cfg = _train_config(args)
    rows = run_sweep(templates, range(1, kmax + 1), (graph, x, labels), cfg,
                     n_splits=args.splits, per_class_train=args.per_class_train,
                     per_class_val=args.per_class_val)
    save_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    for r in rows:
        print(f"{r.arch:26s} k={r.k:2d} acc={r.acc_mean:.4f}±{r.acc_std:.4f} "
              f"density={r.density:.4f} failures={r.failures}")
    if args.density_out:
        _write_density_csv(args.density_out, _density_curve(_propagated(graph, args.prop), kmax))
    all_failed = all(r.failures > 0 and np.isnan(r.acc_mean) for r in rows)
    return 1 if (rows and all_failed) else 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    n, d, p_edge = 8, 3, 0.3
    spec = _model_spec(args, args.arch, args.k)
    for _ in range(25):
        mask = rng.random((n, n)) < p_edge
        np.fill_diagonal(mask, False)
        graph = from_edge_list([(int(i), int(j)) for i, j in zip(*np.nonzero(mask))], n)
        x = rng.standard_normal((n, d))
        params = init_params(spec, d, 3, rng)
        # random biases keep empty-aggregation rows away from the ReLU kink
        params = [replace(p, b=0.5 * rng.standard_normal(p.b.shape)) for p in params]
        if not relu_kink_risk(spec, graph, x, params):
            break
    else:
        raise InputError("could not draw a kink-free instance; try another seed")
    err = gradient_check(spec, graph, x, params, rng.standard_normal((n, 3)))
    print(f"max relative gradient error: {err:.3e} (threshold 1e-4)")
    ok = err < 1e-4
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_synth_args(p: argparse.ArgumentParser, graph_only: bool = False):
    """``--n``, and unless ``graph_only`` the label and feature settings, which leave the graph as it is."""
    p.add_argument("--n", type=int, default=300, help="synthetic node count")
    if not graph_only:
        p.add_argument("--noise", type=float, default=0.0, help="label noise for structure_only, in [0, 1]")
        p.add_argument("--feature-signal", dest="feature_signal", type=float, default=1.0)


def _add_transform_args(p: argparse.ArgumentParser):
    p.add_argument("--selfloops", action="store_true", help="add self-loops first")
    p.add_argument("--symmetrize", action="store_true", help="symmetrize first")
    p.add_argument("--reverse", action="store_true", help="transpose the adjacency first")


def _add_data_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="dataset directory (or name under $HOPSCOPE_DATA_DIR)")
    src.add_argument("--synth", choices=SYNTH_KINDS, help="synthetic dataset kind")
    _add_synth_args(p)
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
                   help="default to the full 1500-epoch budget with patience 410/80")
    p.add_argument("--splits", type=int, default=10)
    p.add_argument("--per-class-train", dest="per_class_train", type=int, default=20)
    p.add_argument("--per-class-val", dest="per_class_val", type=int, default=30)


@functools.lru_cache(maxsize=8)
def build_parser(**defaults) -> argparse.ArgumentParser:
    """The CLI parser, built once for each ``defaults`` (parsing leaves it as it is); they replace the
    built-in defaults of every subcommand that has the key."""
    parser = argparse.ArgumentParser(prog="hopscope", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-loops", help="check pattern-inclusion laws for loop structures")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--lemma", required=True, choices=("self_loop", "two_node", "m_node", "dag"))
    p.add_argument("--m", type=int, default=None, help="cycle length for m_node")
    p.add_argument("--kmax", type=int, default=5)
    _add_transform_args(p)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_analyze_loops)

    p = sub.add_parser("density-curve", help="density of the k-step pattern for k=1..kmax")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--synth", choices=SYNTH_KINDS)
    _add_synth_args(p, graph_only=True)
    p.add_argument("--kmax", type=int, default=10)
    _add_transform_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density_curve)

    p = sub.add_parser("normalize", help="write a normalized adjacency as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--norm", required=True, choices=NORM_SCHEMES)
    _add_transform_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("synth", help="write a synthetic dataset directory")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    _add_synth_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model over random splits")
    _add_data_args(p)
    _add_model_args(p)
    _add_train_args(p)
    p.add_argument("--out", default=None, help="per-split results CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="accuracy/density sweep over architectures and k")
    _add_data_args(p)
    p.add_argument("--arches", required=True, help="comma-separated architecture names")
    p.add_argument("--kmax", type=int, default=5)
    _add_model_args(p, with_arch=False, with_k=False)
    _add_train_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--density-out", dest="density_out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    _add_model_args(p)
    p.set_defaults(func=cmd_gradcheck)

    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)
        p.set_defaults(**{key: value for key, value in defaults.items() if p.get_default(key) is not None})
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        _index(args.seed, "seed", 0)
        _print_config(args)
        return args.func(args)
    except (HopscopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
