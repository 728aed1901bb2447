"""The benchmark workloads: inputs made from a seed, one timed pass, checks.

Every workload drives hopscope through its public modules only, looking
each function up on its module at call time so that a tracer installed
around a pass sees the calls. A pass is a fixed amount of work, the same
on every seed and every commit; ``PassResult.op_seconds`` counts only the
time spent inside library calls, never the checks.

Training runs keep the acceptance configurations (c09 for deep_stack)
except for a short fixed epoch budget: early-stopping patience sits one below
``max_epochs``, so it cannot fire. With early stopping on, the work of a
pass followed the seed (288 to 363 epochs per deep_stack run over six
seeds) and swamped the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import hopscope
from hopscope import cli, datasets, graphs, hops, models, normalization, training
from hopscope.errors import HopscopeError

SRC = Path(__file__).resolve().parent.parent / "src"
if not Path(hopscope.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"hopscope imported from {hopscope.__file__}, not from {SRC}")

# The checks call these originals, bound before any tracer is installed,
# so checking never shows up in a trace.
_build_aggregation = models.build_aggregation
_mat_power_count = hops.mat_power_count
_mat_power_support = hops.mat_power_support
_read_edge_list = graphs.read_edge_list


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; ``FULL`` is the benchmark, ``TOY`` the smoke test."""

    splits: int = 2
    deep_k: int = 50
    deep_epochs: int = 70
    power_ks: tuple[int, ...] = (2, 4, 6, 8, 10)
    power_epochs: int = 20
    big_nodes: int = 100_000
    big_edges: int = 500_000
    cli_nodes: int = 1000
    loop_kmax: int = 6
    two_node_kmax: int = 5
    density_kmax: int = 8
    period_cap: int = 200


FULL = Scale()
TOY = Scale(
    deep_k=3, deep_epochs=3, power_ks=(2,), power_epochs=3,
    big_nodes=2_000, big_edges=10_000, cli_nodes=200, loop_kmax=3, two_node_kmax=2, density_kmax=3,
)


@dataclass
class PassResult:
    op_seconds: list[float] = field(default_factory=list)  # time inside library calls, per operation
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    epoch_ms: list[float] = field(default_factory=list)  # one per training run or cell
    accuracies: list[float] = field(default_factory=list)
    cells: int = 0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fail(self, what: str, n: int = 1):
        self.failed += n
        self.problems.append(what)

    def fold(self, *parts):
        for p in parts:
            self._digest.update(p if isinstance(p, bytes) else repr(p).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


def pass_seconds(passes: list[PassResult]) -> float:
    """One pass's time: library time over every pass, divided by the passes.

    The machine's speed wanders by a tenth or more within a run; the mean
    over the whole run follows it less from run to run than the median of
    a few passes does.
    """
    return float(sum(p.seconds for p in passes) / len(passes))


@contextlib.contextmanager
def _timed(res: PassResult):
    """Time one operation; every pass times the same operations in the same order."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        res.op_seconds.append(time.perf_counter() - t0)


def _run_seed(seed: int, si: int) -> int:
    """The per-split seed rule of ``run_sweep`` and the CLI ``train`` command."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(si, 17)).generate_state(1)[0])


def _fixed_epochs(epochs: int, **kw) -> training.TrainConfig:
    return training.TrainConfig(max_epochs=epochs, early_stop_patience=epochs - 1, **kw)


def _agg_widths(spec: models.ModelSpec, in_dim: int) -> list[int]:
    """Input widths of the layers that multiply by Â."""
    return [in_dim if i == 0 else spec.hidden_width
            for i, kind in enumerate(spec.layer_kinds()) if kind in ("gcn", "sage")]


def _floor_entry(spec, graph, in_dim: int, epochs: int):
    a = _build_aggregation(spec, graph).to_scipy()
    return a, a.T.tocsr(), _agg_widths(spec, in_dim), epochs


# ---------------------------------------------------------------------------
# power_dense: run_sweep, one (architecture, k) cell per call


@dataclass
class SweepInputs:
    dataset: tuple
    templates: list
    ks: tuple[int, ...]
    cfg: training.TrainConfig
    splits: int


def _setup_power_dense(seed: int, scale: Scale, work: Path) -> SweepInputs:
    dataset = training.synthesize_dataset("structure_only", n=400, seed=seed)
    templates = [
        models.ModelSpec(arch=a, k=1, hidden_width=8, activation="relu", norm="sym",
                         propagation="bidirectional")
        for a in ("one_layer_power_k", "hybrid_power_plus_linear")
    ]
    cfg = _fixed_epochs(scale.power_epochs, lr=0.05, lr_sched_patience=60, seed=seed)
    return SweepInputs(dataset, templates, scale.power_ks, cfg, scale.splits)


def _run_sweep_pass(inp: SweepInputs) -> PassResult:
    res = PassResult()
    epochs = inp.cfg.max_epochs
    for template in inp.templates:
        for k in inp.ks:
            res.attempted += inp.splits
            res.cells += 1
            t0 = time.perf_counter()
            try:
                with _timed(res):
                    rows = training.run_sweep([template], [k], inp.dataset, inp.cfg, n_splits=inp.splits)
            except HopscopeError as exc:
                res.fail(f"{template.arch} k={k}: {type(exc).__name__}: {exc}", inp.splits)
                continue
            wall = time.perf_counter() - t0
            (row,) = rows
            res.fold(row.arch, row.k, row.acc_mean, row.acc_std, row.density, row.failures)
            if row.failures:
                res.fail(f"{template.arch} k={k}: {row.failures} failed split(s)", row.failures)
            elif not (0.0 <= row.acc_mean <= 1.0 and math.isfinite(row.acc_std) and 0.0 < row.density <= 1.0):
                res.fail(f"{template.arch} k={k}: non-finite or out-of-range row {row}", inp.splits)
            else:
                res.accuracies.append(row.acc_mean)
                res.epoch_ms.append(1000.0 * wall / (epochs * inp.splits))
    return res


def _sweep_floor_plan(inp: SweepInputs):
    graph, x, _ = inp.dataset
    return [
        _floor_entry(replace(t, k=k), graph, x.shape[1], inp.cfg.max_epochs * inp.splits)
        for t in inp.templates for k in inp.ks
    ]


# ---------------------------------------------------------------------------
# deep_stack: train_model on a 50-layer linear stack, one call per split


@dataclass
class DeepInputs:
    dataset: tuple
    spec: models.ModelSpec
    splits: list
    cfg: training.TrainConfig


def _setup_deep_stack(seed: int, scale: Scale, work: Path) -> DeepInputs:
    dataset = training.synthesize_dataset("sparse_digraph_deep", n=400, seed=seed)
    splits = training.make_splits(dataset[2], n_splits=scale.splits, seed=seed)
    spec = models.ModelSpec(arch="k_layer_gcn", k=scale.deep_k, hidden_width=16, activation="identity",
                            norm="row", propagation="forward")
    cfg = _fixed_epochs(scale.deep_epochs, lr=0.005, lr_sched_patience=200, seed=seed)
    return DeepInputs(dataset, spec, splits, cfg)


def _metrics_finite(m: training.Metrics, epochs: int) -> bool:
    traces = np.asarray(m.grad_norm_traces[0], dtype=np.float64)
    return (
        m.epochs_run == (epochs,)
        and all(0.0 <= a <= 1.0 for a in m.accuracies + m.majority_baselines)
        and traces.shape[0] == epochs
        and bool(np.all(np.isfinite(traces)))
    )


def _run_deep_pass(inp: DeepInputs) -> PassResult:
    res = PassResult()
    graph, x, labels = inp.dataset
    epochs = inp.cfg.max_epochs
    res.cells = 1
    for si, split in enumerate(inp.splits):
        res.attempted += 1
        cfg = replace(inp.cfg, seed=_run_seed(inp.cfg.seed, si))
        t0 = time.perf_counter()
        try:
            with _timed(res):
                m = training.train_model(inp.spec, graph, x, labels, split, cfg)
        except HopscopeError as exc:
            res.fail(f"split {si}: {type(exc).__name__}: {exc}")
            continue
        wall = time.perf_counter() - t0
        res.fold(m.accuracies, m.majority_baselines, m.epochs_run, m.best_epochs,
                 np.asarray(m.grad_norm_traces, dtype=np.float64).tobytes())
        if not _metrics_finite(m, epochs):
            res.fail(f"split {si}: non-finite or incomplete Metrics")
            continue
        res.accuracies.extend(m.accuracies)
        res.epoch_ms.append(1000.0 * wall / epochs)
    return res


def _deep_floor_plan(inp: DeepInputs):
    graph, x, _ = inp.dataset
    return [_floor_entry(inp.spec, graph, x.shape[1], inp.cfg.max_epochs * len(inp.splits))]


# ---------------------------------------------------------------------------
# structure_scale: graph construction, transforms, file round trip, CLI


@dataclass
class StructureInputs:
    n: int
    edges: np.ndarray  # (m, 2) int64, with repeated pairs
    labels: np.ndarray
    loop_graph: Path  # edge-list file for the CLI
    stride: graphs.SparseCountMatrix  # for support_periodicity
    work: Path
    scale: Scale
    _ref: dict = field(default_factory=dict)


def _ring_with_chords(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Directed ring, a planted 5-cycle 0..4, and n/2 random chords."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(4, 0)]
    src, dst = rng.integers(0, n, size=(2, n // 2))
    return edges + [(int(s), int(d)) for s, d in zip(src, dst)]


def _stride_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Steps of +25 plus +225 chords on a third of the nodes (mod n, n a multiple of 200).

    Every step moves a walk 25 places modulo 200, so once the chords have
    mixed the walks, the pattern of A^k repeats with period exactly 8.
    Nodes 0..24 always get a chord, one on each strand of residues mod 25,
    so every strand mixes; the preperiod stayed between 26 and 38 over 40
    seeds at n=1000.
    """
    chorded = set(range(25)) | set(rng.choice(n, size=n // 3, replace=False).tolist())
    return [(i, (i + 25) % n) for i in range(n)] + [(i, (i + 225) % n) for i in sorted(chorded)]


def _setup_structure_scale(seed: int, scale: Scale, work: Path) -> StructureInputs:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n, m = scale.big_nodes, scale.big_edges
    fresh = rng.integers(0, n, size=(m - m // 10, 2))
    edges = np.concatenate([fresh, fresh[rng.integers(0, len(fresh), size=m // 10)]])
    labels = rng.integers(0, 4, size=n)
    loop_graph = work / "ring.tsv"
    lines = [f"%nodes {scale.cli_nodes}"] + [f"{s}\t{d}" for s, d in _ring_with_chords(scale.cli_nodes, rng)]
    loop_graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stride = graphs.from_edge_list(_stride_edges(scale.cli_nodes, rng), scale.cli_nodes)
    return StructureInputs(n, edges, labels, loop_graph, stride, work, scale)


def _same(a: graphs.SparseCountMatrix, ref: sp.csr_matrix) -> bool:
    return (
        a.n_rows == ref.shape[0]
        and np.array_equal(a.row_offsets, ref.indptr)
        and np.array_equal(a.col_indices, ref.indices)
        and np.array_equal(a.values, ref.data)
    )


def _canonical(m) -> sp.csr_matrix:
    m = sp.csr_matrix(m, dtype=np.int64)
    m.sum_duplicates()
    m.sort_indices()
    return m


def _references(inp: StructureInputs) -> dict:
    """scipy-built expectations for the graph transforms, made once."""
    if not inp._ref:
        e = inp.edges
        base = _canonical(sp.coo_matrix((np.ones(len(e), dtype=np.int64), (e[:, 0], e[:, 1])),
                                        shape=(inp.n, inp.n)))
        inp._ref.update(
            from_edge_list=base,
            transpose=_canonical(base.T),
            symmetrize=_canonical(base + base.T),
            add_self_loops=_canonical(base + sp.eye(inp.n, dtype=np.int64, format="csr")),
        )
    return inp._ref


def _check_normalized(scheme: str, w, g: graphs.SparseCountMatrix) -> bool:
    if not np.all(np.isfinite(w.values)) or np.any(w.values < 0):
        return False
    mass = np.asarray(abs(w.to_scipy()).sum(axis=1)).ravel()
    if w.zero_row_count != int(np.count_nonzero(mass == 0)):
        return False
    if scheme == "none":
        return np.array_equal(w.values, g.values.astype(np.float64))
    if scheme == "row":
        nonempty = np.diff(g.row_offsets) > 0
        return bool(np.all(np.abs(mass[nonempty] - 1.0) <= 1e-12)) and not np.any(mass[~nonempty])
    return True


def _cli(res: PassResult, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with _timed(res), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _run_structure_pass(inp: StructureInputs) -> PassResult:
    res = PassResult()
    sc = inp.scale

    def op(what: str, ok: bool, *digest):
        res.attempted += 1
        res.fold(what, *digest)
        if not ok:
            res.fail(what)

    with _timed(res):
        g = graphs.from_edge_list(inp.edges, inp.n)
    ref = _references(inp)
    op("from_edge_list", _same(g, ref["from_edge_list"]), g.nnz)
    for name in ("transpose", "symmetrize", "add_self_loops"):
        with _timed(res):
            out = getattr(graphs, name)(g)
        op(name, _same(out, ref[name]), out.nnz)
        del out

    for scheme in normalization.NORM_SCHEMES:
        with _timed(res):
            w = normalization.normalize(g, scheme)
        op(f"normalize {scheme}", _check_normalized(scheme, w, g), w.values.tobytes(), w.zero_row_count)
        del w

    # Outputs of an earlier pass are removed first, so a stale file can never pass a check.
    ds = inp.work / "dataset"
    shutil.rmtree(ds, ignore_errors=True)
    with _timed(res):
        datasets.save_dataset(g, None, inp.labels, ds)
        bundle = datasets.load_dataset(ds)
    op("save_dataset/load_dataset", bundle.graph == g and bundle.features is None
       and np.array_equal(bundle.labels, inp.labels), bundle.stats)

    graph_arg = ["--graph", str(inp.loop_graph)]
    for lemma, extra, kmax in (
        ("self_loop", ["--selfloops"], sc.loop_kmax),
        ("two_node", ["--symmetrize"], sc.two_node_kmax),
        ("m_node", ["--m", "5"], sc.loop_kmax),
    ):
        csv = inp.work / f"{lemma}.csv"
        csv.unlink(missing_ok=True)
        code, text = _cli(res, ["analyze-loops", *graph_arg, "--lemma", lemma, "--kmax", str(kmax),
                                "--out", str(csv), *extra])
        verdict = text.strip().splitlines()[-1] if text.strip() else ""
        op(f"analyze-loops {lemma}", code == 0 and verdict.endswith("PASS") and csv.is_file(),
           csv.read_bytes() if csv.is_file() else b"")

    csv = inp.work / "density.csv"
    csv.unlink(missing_ok=True)
    code, _ = _cli(res, ["density-curve", *graph_arg, "--kmax", str(sc.density_kmax), "--out", str(csv)])
    ok = code == 0 and csv.is_file()
    if ok:
        rows = [line.split(",") for line in csv.read_text(encoding="utf-8").splitlines()[1:]]
        base = _read_edge_list(inp.loop_graph)
        ok = len(rows) == sc.density_kmax and all(
            int(nnz) == _mat_power_count(base, int(k)).nnz for k, _, nnz in rows[:3]
        )
    op("density-curve", ok, csv.read_bytes() if csv.is_file() else b"")

    with _timed(res):
        per = hops.support_periodicity(inp.stride, sc.period_cap)
    ok = per is not None and per.period == 8 and hops.support_equal(
        _mat_power_support(inp.stride, per.preperiod), _mat_power_support(inp.stride, per.preperiod + 8)
    )
    op("support_periodicity", ok, per)
    return res


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, scale, work dir) -> inputs
    run: object  # inputs -> PassResult
    floor_plan: object = None  # training workloads: inputs -> the SpMM floor's products


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "deep_stack": Workload(_setup_deep_stack, _run_deep_pass, _deep_floor_plan),
    "power_dense": Workload(_setup_power_dense, _run_sweep_pass, _sweep_floor_plan),
    "structure_scale": Workload(_setup_structure_scale, _run_structure_pass),
}
