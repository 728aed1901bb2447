"""Node-classification training harness.

Full-batch softmax cross-entropy with Adam, validation-accuracy early
stopping with best-parameter restore, and plateau-halving of the learning
rate. Every run is a pure function of (model spec, data, split, config):
the same seed reproduces the same metrics bit for bit.

The module also ships three synthetic dataset families sized for desk
experiments: a structure-only task whose labels derive from in-degree
mass, a structure-feature hybrid on a sparse directed graph with long
paths, and a low-density digraph built for very deep stability runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CountOverflowError, InputError, NumericError
from .graphs import SparseCountMatrix, from_edge_list
from .hops import density, support_powers
from .models import (
    ModelSpec,
    _backward_pass,
    _features,
    _forward_pass,
    _packed,
    _reach_adjacency,
    _resolve_ahat,
    _views,
    init_params,
    model_forward,
    uniform_features,
)
from .normalization import PowerAggregation, WeightedAdjacency

__all__ = [
    "SplitSpec",
    "TrainConfig",
    "Metrics",
    "SweepRow",
    "make_splits",
    "train_model",
    "train_splits",
    "run_sweep",
    "synthesize_dataset",
    "majority_baseline",
]


@dataclass(frozen=True)
class SplitSpec:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("train", "val", "test"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.int64))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        all_idx = np.concatenate([self.train, self.val, self.test])
        if len(np.unique(all_idx)) != len(all_idx):
            raise InputError("split index sets must be disjoint")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    l2: float = 0.0
    dropout: float = 0.0
    max_epochs: int = 300
    early_stop_patience: int = 100
    lr_sched_patience: int = 40
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise InputError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 <= self.l2 < np.inf:
            raise InputError(f"l2 must be non-negative and finite, got {self.l2}")
        if not (0.0 <= self.dropout < 1.0):
            raise InputError("dropout must be in [0, 1)")
        if self.lr_sched_patience < 1:
            raise InputError("lr_sched_patience must be at least 1")
        if self.early_stop_patience >= self.max_epochs:
            raise InputError("early-stop patience must be below max_epochs")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")

    @staticmethod
    def paper_protocol(**overrides) -> "TrainConfig":
        """The full-size budget: 1500 epochs, patience 410, scheduler 80."""
        base = dict(lr=0.01, max_epochs=1500, early_stop_patience=410, lr_sched_patience=80)
        base.update(overrides)
        return TrainConfig(**base)


@dataclass(frozen=True)
class Metrics:
    """Per-run results; mean/std always recomputable from the lists."""

    accuracies: tuple[float, ...]
    majority_baselines: tuple[float, ...]
    epochs_run: tuple[int, ...]
    best_epochs: tuple[int, ...]
    grad_norm_traces: tuple = field(repr=False, default=())

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")

    @staticmethod
    def merge(runs: list["Metrics"]) -> "Metrics":
        return Metrics(
            accuracies=tuple(a for r in runs for a in r.accuracies),
            majority_baselines=tuple(b for r in runs for b in r.majority_baselines),
            epochs_run=tuple(e for r in runs for e in r.epochs_run),
            best_epochs=tuple(e for r in runs for e in r.best_epochs),
            grad_norm_traces=tuple(t for r in runs for t in r.grad_norm_traces),
        )


def make_splits(
    labels,
    per_class_train: int = 20,
    per_class_val: int = 30,
    n_splits: int = 10,
    seed: int = 0,
) -> list[SplitSpec]:
    """Random class-balanced splits; the rest of the nodes become test."""
    for name, value in (("per_class_train", per_class_train), ("per_class_val", per_class_val),
                        ("n_splits", n_splits)):
        if value < 1:
            raise InputError(f"{name} must be at least 1, got {value}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    need = per_class_train + per_class_val + 1
    for c in classes:
        have = int(np.sum(labels == c))
        if have < need:
            raise InputError(f"class {c} has {have} nodes, needs at least {need}")
    splits = []
    for s in range(n_splits):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        train, val = [], []
        for c in classes:
            idx = np.where(labels == c)[0]
            perm = rng.permutation(idx)
            train.append(perm[:per_class_train])
            val.append(perm[per_class_train:per_class_train + per_class_val])
        train = np.sort(np.concatenate(train))
        val = np.sort(np.concatenate(val))
        rest = np.setdiff1d(np.arange(len(labels)), np.concatenate([train, val]))
        splits.append(SplitSpec(train=train, val=val, test=rest, seed=seed))
    return splits


def majority_baseline(labels, split: SplitSpec) -> float:
    """Test share of the most frequent training class (ties: lowest id)."""
    labels = np.asarray(labels)
    counts = np.bincount(labels[split.train])
    c_star = int(np.argmax(counts))
    return float(np.mean(labels[split.test] == c_star))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def _accuracy(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    pred = logits[idx].argmax(axis=1)
    return float(np.mean(pred == labels[idx]))


@np.errstate(over="ignore", invalid="ignore")
def train_model(
    spec: ModelSpec,
    graph: SparseCountMatrix | WeightedAdjacency | PowerAggregation,
    x: np.ndarray,
    labels,
    split: SplitSpec,
    cfg: TrainConfig,
) -> Metrics:
    """One deterministic training run; returns single-run Metrics.

    ``graph`` is a raw count matrix or a prebuilt aggregation. Â and layer
    0's ``Â X`` are built once per run (a power architecture's by k sparse
    products, and its Â never as a matrix); the backward reuses the
    caches of the epoch's forward, and an epoch that draws no dropout
    masks reuses the previous eval forward: one forward per epoch without
    dropout, two with.

    The layer records view one flat vector ``theta`` (the layout of
    ``flat_gradients``), and the backward writes every gradient into views
    of one flat vector ``grad`` of the same layout, both allocated once per
    run: Adam's ``m``/``v``, the weights-only l2 term and the update are
    elementwise and in place on whole vectors, the same bits as a per-array
    loop, and a snapshot is ``theta.copy()``.

    Divergence (non-finite loss or activations) raises
    :class:`NumericError` carrying the epoch at which it happened. numpy's
    overflow and invalid-value warnings are off: every forward's finite
    check and the loss check catch each non-finite value they lead to.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    ahat = _resolve_ahat(spec, graph)
    x = _features(ahat, x)
    ahat_t = ahat.T  # a CSC view over Â's arrays, or the transposed power operator: no copy
    ax = ahat @ x  # layer 0 always aggregates, and Â X is the same in every forward
    theta, params = _packed(init_params(spec, x.shape[1], n_classes, rng))
    grad = np.zeros_like(theta)
    grads = _views(grad, params)
    weights = np.concatenate([np.full(getattr(p, n).size, n != "b") for p in params for n in p.fields])
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.lr

    hidden_shapes = [(x.shape[0], p.W.shape[1]) for p in params[:-1]]
    best_val, best_epoch, best_theta = -1.0, 0, theta.copy()
    no_improve = 0
    sched_no_improve = 0
    traces = []
    epoch = 0
    y_train = labels[split.train]
    evaluated = None  # (logits, caches) of the current params without masks

    def forward(masks):
        try:
            return _forward_pass(spec, ahat, x, params, masks, ax=ax)
        except NumericError as exc:
            raise NumericError(str(exc), epoch=epoch) from exc

    for epoch in range(1, cfg.max_epochs + 1):
        masks = None
        if cfg.dropout > 0.0 and hidden_shapes:
            keep = 1.0 - cfg.dropout
            masks = [
                (rng.random(shape) < keep).astype(np.float64) / keep for shape in hidden_shapes
            ] + [None]  # output layer never masked
        if masks is not None or evaluated is None:
            evaluated = None  # one set of caches alive at a time, as in a lone forward
            evaluated = forward(masks)
        logits, caches = evaluated
        loss = _cross_entropy(logits[split.train], y_train)
        if cfg.l2 > 0:
            loss += 0.5 * cfg.l2 * float(np.sum(theta[weights] ** 2))
        if not np.isfinite(loss):
            raise NumericError("training loss diverged", epoch=epoch)

        upstream = np.zeros_like(logits)
        probs = _softmax(logits[split.train])
        probs[np.arange(len(y_train)), y_train] -= 1.0
        upstream[split.train] = probs / len(y_train)

        _, norms = _backward_pass(spec, ahat_t, params, caches, upstream, grads)
        traces.append(tuple(norms))

        if cfg.l2 > 0:
            grad[weights] += cfg.l2 * theta[weights]
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1**epoch)
        v_hat = v / (1 - beta2**epoch)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)  # in place: the records see it

        evaluated = caches = None
        evaluated = forward(None)
        val_acc = _accuracy(evaluated[0], labels, split.val)
        if val_acc > best_val:
            best_val, best_epoch, best_theta = val_acc, epoch, theta.copy()
            no_improve = 0
            sched_no_improve = 0
        else:
            no_improve += 1
            sched_no_improve += 1
            if sched_no_improve >= cfg.lr_sched_patience:
                lr *= 0.5
                sched_no_improve = 0
            if no_improve >= cfg.early_stop_patience:
                break

    evaluated = ax = None  # freed before the final forward
    final_logits = model_forward(spec, ahat, x, _views(best_theta, params))
    test_acc = _accuracy(final_logits, labels, split.test)
    return Metrics(
        accuracies=(test_acc,),
        majority_baselines=(majority_baseline(labels, split),),
        epochs_run=(epoch,),
        best_epochs=(best_epoch,),
        grad_norm_traces=(tuple(traces),),
    )


def train_splits(spec: ModelSpec, graph, x, labels, splits, cfg: TrainConfig):
    """One :func:`train_model` run per split, seeded by ``spawn_key=(si, 17)``.

    The aggregation is built once (a power's as an operator, never as a
    matrix) and shared by every split. Returns ``(runs, failed)``: the
    finished runs' Metrics, and a ``(split index, error)`` pair for each
    run that raised :class:`NumericError`. When the aggregation itself
    fails (a power whose degrees leave float64 range, or a
    :class:`CountOverflowError` from symmetrizing or adding self-loops),
    every split fails with that error. :class:`InputError` propagates.
    """
    runs, failed = [], []
    try:
        ahat = _resolve_ahat(spec, graph)
    except (NumericError, CountOverflowError) as exc:
        return runs, [(si, exc) for si in range(len(splits))]
    for si, split in enumerate(splits):
        run_seed = int(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, 17)).generate_state(1)[0])
        try:
            runs.append(train_model(spec, ahat, x, labels, split, replace(cfg, seed=run_seed)))
        except NumericError as exc:
            failed.append((si, exc))
    return runs, failed


# ---------------------------------------------------------------------------
# experiment sweeps


@dataclass(frozen=True)
class SweepRow:
    arch: str
    k: int
    norm: str
    propagation: str
    acc_mean: float
    acc_std: float
    density: float
    failures: int


def _sweep_densities(template: ModelSpec, graph: SparseCountMatrix, ks: list[int]) -> list[float]:
    """The density of ``support(M^k)`` for each k of the ascending ``ks``, ``M`` the template's reach.

    One boolean ladder gives them all and converts only the rungs in
    ``ks``. A reach that raises :class:`CountOverflowError` gives NaN for
    every k; :func:`train_splits` fails each of its cells with that error.
    """
    try:
        reach = _reach_adjacency(template, graph)
    except CountOverflowError:
        return [float("nan")] * len(ks)
    return [density(p) for p in support_powers(reach, ks)]


def run_sweep(
    arches: list[ModelSpec],
    k_range,
    dataset,
    cfg: TrainConfig,
    n_splits: int = 10,
    per_class_train: int = 20,
    per_class_val: int = 30,
) -> list[SweepRow]:
    """Train every (architecture, k) cell over shared splits.

    Rows come out in deterministic (arch order, ascending k) order; a run
    that diverges is counted in ``failures`` instead of aborting the
    sweep, while an :class:`InputError` aborts it. Every cell is one
    :func:`train_splits` call on the raw graph, which builds the cell's Â:
    a power cell whose degrees leave float64 range fails alone, and every
    cell of a template whose reach overflows int64 fails, with a NaN
    density. A template's densities come off one boolean ladder.
    """
    graph, x, labels = dataset
    if x is None:
        x = uniform_features(graph.n_rows)
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise InputError("k_range must contain integers >= 1")
    splits = make_splits(
        labels, per_class_train=per_class_train, per_class_val=per_class_val,
        n_splits=n_splits, seed=cfg.seed,
    )
    rows = []
    for template in arches:
        for k, dens in zip(ks, _sweep_densities(template, graph, ks)):
            spec = replace(template, k=k)
            runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
            merged = Metrics.merge(runs)
            rows.append(
                SweepRow(
                    arch=spec.arch,
                    k=k,
                    norm=spec.norm,
                    propagation=spec.propagation,
                    acc_mean=merged.mean,
                    acc_std=merged.std,
                    density=dens,
                    failures=len(failed),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# synthetic datasets


def synthesize_dataset(kind: str, n: int, seed: int, noise: float = 0.0, feature_signal: float = 1.0):
    """Deterministic desk-scale datasets: ``(graph, X, labels)``.

    ``structure_only`` — uniform features; 4 labels are quantile bins of
    an in-degree mass score (the total in-degree of a node's in-
    neighbors), so structure alone decides the class. ``noise``
    resamples that fraction of labels uniformly.

    ``hybrid`` — sparse long-path digraph whose 4 classes are contiguous
    rank bands, plus class-informative Gaussian features scaled by
    ``feature_signal``.

    ``sparse_digraph_deep`` — directed ring with sparse chords; the
    pattern of A^k never dies out, so very deep stacks stay non-trivial.
    """
    if n < 50:
        raise InputError("synthetic datasets need n >= 50")
    kind_keys = {"structure_only": 1, "hybrid": 2, "sparse_digraph_deep": 3}
    if kind not in kind_keys:
        raise InputError(f"unknown synthetic kind {kind!r}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if not 0.0 <= noise <= 1.0:
        raise InputError(f"noise must be in [0, 1], got {noise}")
    if not np.isfinite(feature_signal):
        raise InputError(f"feature_signal must be finite, got {feature_signal}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(kind_keys[kind],)))
    if kind == "structure_only":
        return _synth_structure_only(n, rng, noise)
    if kind == "hybrid":
        return _synth_hybrid(n, rng, feature_signal)
    return _synth_deep(n, rng, feature_signal)


def _quantile_labels(score: np.ndarray, n_classes: int = 4) -> np.ndarray:
    qs = np.quantile(score, np.arange(1, n_classes) / n_classes)
    return np.searchsorted(qs, score, side="right").astype(np.int64)


def _synth_structure_only(n: int, rng: np.random.Generator, noise: float):
    """Labels are quantile bins of each node's aggregated in-degree mass.

    A tenth of the nodes are feeders with conspicuously high in-degree;
    every other node draws four in-edges, 0..3 of them from feeders, so
    the total in-degree of its in-neighborhood clusters into four well
    separated levels while its own in-degree stays flat. Two hub nodes
    give everyone at least one in- and one out-edge without perturbing
    the score (the out-hub has in-degree 1).
    """
    hub_in, hub_out = n - 2, n - 1
    regular = np.arange(n - 2)
    n_feed = max(4, n // 10)
    perm = rng.permutation(regular)
    feeders, nonfeeders = perm[:n_feed], perm[n_feed:]
    m = len(nonfeeders)
    top = max(0, n // 4 - n_feed - 2)  # feeders and hubs land in the top class
    rest = m - top
    base = rest // 3
    counts = [base + (1 if i < rest - 3 * base else 0) for i in range(3)] + [top]
    feeder_picks = np.concatenate([np.full(counts[c], c) for c in range(4)])
    feeder_picks = feeder_picks[rng.permutation(m)]

    edges = [(int(i), hub_in) for i in regular] + [(hub_out, int(i)) for i in regular]
    edges += [(hub_in, hub_out), (hub_out, hub_in)]
    for f in feeders:
        for _ in range(int(rng.integers(10, 15)) + 4):
            src = int(regular[rng.integers(0, len(regular))])
            if src != f:
                edges.append((src, int(f)))
    for i, fv in zip(nonfeeders, feeder_picks):
        for _ in range(int(fv)):
            edges.append((int(feeders[rng.integers(0, n_feed)]), int(i)))
        for _ in range(4 - int(fv)):
            src = int(nonfeeders[rng.integers(0, m)])
            if src != i:
                edges.append((src, int(i)))
    graph = from_edge_list(edges, n)
    msp = graph.csr.astype(np.float64)
    indeg = np.asarray(msp.sum(axis=0)).ravel()
    score = msp.T @ indeg  # total in-degree of each node's in-neighbors
    labels = _quantile_labels(score)
    if noise > 0:
        flip = rng.random(n) < noise
        labels = labels.copy()
        labels[flip] = rng.integers(0, 4, size=int(flip.sum()))
    return graph, uniform_features(n), labels


def _synth_hybrid(n: int, rng: np.random.Generator, feature_signal: float):
    """Sparse directed lattice whose k-step reach respects class stripes.

    Edges jump 50 positions (multiplicity 1-2) with occasional 250-jump
    chords; class stripes are 50 wide with period 200, so a length-k
    walk always lands a fixed number of stripes ahead: aggregated
    features stay class-informative at every k. Gaussian class means
    scaled by ``feature_signal`` supply the feature side of the task.
    n is rounded up to a multiple of 200.
    """
    n = max(200, ((n + 199) // 200) * 200)
    d = 12
    edges = []
    for i in range(n):
        for _ in range(int(rng.integers(1, 3))):
            edges.append((i, (i + 50) % n))
    for _ in range(n // 6):
        i = int(rng.integers(0, n))
        edges.append((i, (i + 250) % n))
    graph = from_edge_list(edges, n)
    labels = ((np.arange(n) // 50) % 4).astype(np.int64)
    mu = rng.standard_normal((4, d)) * feature_signal
    x = mu[labels] + rng.standard_normal((n, d))
    return graph, x, labels


def _synth_deep(n: int, rng: np.random.Generator, feature_signal: float):
    """Directed ring with long chords; class stripes of width 50.

    Every edge displaces a node by 25 positions modulo 200 (lattice
    steps jump 25, chords 225), and class stripes are 50 wide with
    period 200, so a length-L walk always lands (25 L mod 200)
    positions ahead: for any even depth that is a whole number of
    stripes, and a depth-L stack faces a consistent class permutation
    rather than blurred labels. The class signal is a single scalar
    feature so it survives stacks that squash multi-dimensional
    inputs. n is rounded up to a multiple of 200 so the stripes tile
    the ring exactly.
    """
    n = max(200, ((n + 199) // 200) * 200)
    edges = [(i, (i + 25) % n) for i in range(n)]
    for _ in range(n // 6):
        i = int(rng.integers(0, n))
        edges.append((i, (i + 225) % n))
    graph = from_edge_list(edges, n)
    labels = ((np.arange(n) // 50) % 4).astype(np.int64)
    x = (labels[:, None] + 1.0) * feature_signal + 0.15 * rng.standard_normal((n, 1))
    return graph, x, labels
