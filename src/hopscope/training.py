"""Node-classification training harness.

Full-batch softmax cross-entropy with Adam, validation-accuracy early
stopping with best-parameter restore, and plateau-halving of the learning
rate. Every run is a pure function of (model spec, data, split, config):
the same seed reproduces the same metrics bit for bit.

:func:`train_splits` trains all of a cell's splits in lockstep, as one
stacked model, and :func:`train_model` is its one-split case. Â, Âᵀ and
layer 0's ``Â X`` are built once for all splits; every per-split quantity
is a row of its own, and each split draws its dropout masks from its own
generator, so a split's Metrics are bit for bit those of a lone run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import synthesize_dataset  # its home is datasets; the name stays importable here
from .errors import CountOverflowError, InputError, NumericError
from .graphs import SparseCountMatrix, _index, _int64_field, _labels, _real
from .hops import support_nnz
from .models import (
    ModelSpec,
    _backward_pass,
    _features,
    _forward_pass,
    _NonFinite,
    _reach_adjacency,
    _resolve_ahat,
    _views,
    _Workspace,
    flat_gradients,
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
        for name, what in (("train", "training"), ("val", "validation"), ("test", "test")):
            arr = _int64_field(getattr(self, name), f"{what} nodes")
            if arr.ndim != 1:
                raise InputError(f"{what} nodes must form a 1-D array, got shape {arr.shape}")
            if not len(arr):
                raise InputError(f"a split needs at least one {what} node")
            object.__setattr__(self, name, arr)
        all_idx = np.concatenate([self.train, self.val, self.test])
        if len(np.unique(all_idx)) != len(all_idx):
            raise InputError("split index sets must be disjoint")
        _index(self.seed, "seed", 0)


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
        for name, low in (("max_epochs", 1), ("early_stop_patience", 0), ("lr_sched_patience", 1), ("seed", 0)):
            _index(getattr(self, name), name, low)
        if not 0 < _real(self.lr, "lr") < np.inf:
            raise InputError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 <= _real(self.l2, "l2") < np.inf:
            raise InputError(f"l2 must be non-negative and finite, got {self.l2}")
        if not 0.0 <= _real(self.dropout, "dropout") < 1.0:
            raise InputError("dropout must be in [0, 1)")
        if self.early_stop_patience >= self.max_epochs:
            raise InputError("early-stop patience must be below max_epochs")

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
    """Random class-balanced splits; the rest of the nodes become test.

    ``labels`` must be one non-negative integer class per node, else :class:`InputError`.
    """
    for name, value, low in (("per_class_train", per_class_train, 1), ("per_class_val", per_class_val, 1),
                             ("n_splits", n_splits, 1), ("seed", seed, 0)):
        _index(value, name, low)
    labels = _labels(labels)
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
    """Test share of the most frequent training class (ties: lowest id); ``labels`` as in :func:`make_splits`."""
    labels = _labels(labels)
    counts = np.bincount(labels[split.train])
    c_star = int(np.argmax(counts))
    return float(np.mean(labels[split.test] == c_star))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _accuracy(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    pred = logits[idx].argmax(axis=1)
    return float(np.mean(pred == labels[idx]))


class _Nodes:
    """One node set (``train``, ``val`` or ``test``) of each of B splits, as rows of the (n·B, classes) view
    of (n, B·classes) logits: node i of split b is row ``i·B + b``."""

    def __init__(self, splits: list[SplitSpec], name: str, labels: np.ndarray):
        nodes = [getattr(split, name) for split in splits]
        self.sizes = np.array([len(a) for a in nodes])
        self.split = np.repeat(np.arange(len(nodes)), self.sizes)
        self.rows = np.concatenate(nodes) * len(nodes) + self.split
        self.labels = labels[np.concatenate(nodes)]
        self.order = np.arange(len(self.rows))
        ends = np.cumsum(self.sizes).tolist()
        self.parts = list(zip([0] + ends[:-1], ends))  # each split's rows, in its node order

    def accuracies(self, logits: np.ndarray) -> np.ndarray:
        """Each split's accuracy, as :func:`_accuracy` gives it (an exact count over the set size)."""
        hits = logits[self.rows].argmax(axis=1) == self.labels
        return np.bincount(self.split, weights=hits, minlength=len(self.sizes)) / self.sizes


class _Lockstep:
    """The runs of a cell's splits, trained in lockstep as one stacked model.

    Row r of every per-split array (``theta``, Adam's ``m`` and ``v``,
    ``lr``, the snapshot ``best``, the patience counters and the epoch's
    dropout ``draws``) belongs to split ``ids[r]``, and each epoch makes one
    stacked forward, backward and Adam step for every row (2-D records when
    one split is left). Â, ``X`` and layer 0's ``Â X`` are shared. A split
    that stops early or fails leaves the batch (:meth:`_leave`), and the
    views, buffers and node indices are rebuilt for the rest.
    """

    _ROWS = ("ids", "rngs", "traces", "best_val", "best_epoch", "no_improve", "sched",
             "theta", "m", "v", "best", "lr", "draws")

    def __init__(self, spec: ModelSpec, ahat, x, labels, splits: list[SplitSpec], seeds: list[int], cfg: TrainConfig):
        self.spec, self.ahat, self.splits, self.cfg = spec, ahat, splits, cfg
        self.x = _features(ahat, x)
        self.labels = _labels(labels, len(self.x))
        for si, split in enumerate(splits):
            nodes = np.concatenate([split.train, split.val, split.test])
            if nodes.min() < 0 or nodes.max() >= len(self.x):
                raise InputError(f"split {si} names a node outside 0..{len(self.x) - 1}")
        self.ahat_t = ahat.T  # a CSC view over Â's arrays, or the transposed power operator: no copy
        self.ax = ahat @ self.x  # layer 0 always aggregates, and Â X is the same in every forward of every split
        self.rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
        self.n_classes = int(self.labels.max()) + 1
        inits = [init_params(spec, self.x.shape[1], self.n_classes, rng) for rng in self.rngs]
        self.template = inits[0]
        self.weights = np.concatenate([np.full(getattr(p, n).size, n != "b") for p in self.template for n in p.fields])
        self.theta = np.stack([flat_gradients(p) for p in inits])
        self.m, self.v = np.zeros_like(self.theta), np.zeros_like(self.theta)
        self.best = self.theta.copy()
        self.lr = np.full((len(splits), 1), cfg.lr)
        self.ids = list(range(len(splits)))
        self.traces = [[] for _ in splits]
        self.best_val, self.best_epoch = [-1.0] * len(splits), [0] * len(splits)
        self.no_improve, self.sched = [0] * len(splits), [0] * len(splits)
        n_masks = len(self.template) - 1 if cfg.dropout > 0.0 else 0  # the output layer is never masked
        self.draws = np.zeros((len(splits), n_masks, len(self.x), self.template[0].W.shape[1]))
        self.done, self.failed = {}, {}
        self.epoch = 0
        self._build()

    def _build(self):
        """The views, buffers and node indices of the current rows; every forward and backward reuses them."""
        self.evaluated = None  # (logits, caches) of the current parameters without masks
        b, n = len(self.ids), len(self.x)
        if not b:
            self.work = None
            return
        self.params = _views(self.theta[0] if b == 1 else self.theta, self.template)
        self.work = _Workspace(self.params, n)
        self.grad = self.work.gradient[0].reshape(b, -1)  # the vector every backward writes, one row per split
        splits = [self.splits[i] for i in self.ids]
        self.train, self.val = _Nodes(splits, "train", self.labels), _Nodes(splits, "val", self.labels)
        self.upstream = np.zeros((n, b * self.n_classes))
        self.masks = [np.empty((n, b * self.draws.shape[3])) for _ in range(self.draws.shape[1])]
        self._fill_masks()

    def _leave(self, rows, error: str | None = None):
        """Rows ``rows`` leave the batch at this epoch, finished or failed with ``error``; the rest are rebuilt."""
        for r in rows:
            if error is None:
                self.done[self.ids[r]] = (self.best[r], self.epoch, self.best_epoch[r], self.traces[r])
            else:
                self.failed[self.ids[r]] = NumericError(error, epoch=self.epoch)
        keep = [r for r in range(len(self.ids)) if r not in rows]
        for name in self._ROWS:
            a = getattr(self, name)
            setattr(self, name, a[keep] if isinstance(a, np.ndarray) else [a[r] for r in keep])
        self._build()

    def _fill_masks(self):
        """Each row's dropout masks from its draws, in the (n, B·width) layout of the hidden states."""
        keep, b = 1.0 - self.cfg.dropout, len(self.ids)
        for layer, mask in enumerate(self.masks):
            np.divide(self.draws[:, layer] < keep, keep, out=mask.reshape(len(mask), b, -1).swapaxes(0, 1))

    def _draw(self):
        """The epoch's masks: each split draws from its own generator, layer by layer."""
        for layer in range(self.draws.shape[1]):
            for rng, draw in zip(self.rngs, self.draws[:, layer]):
                rng.random(out=draw)
        self._fill_masks()
        self.evaluated = None

    def _forward(self, train: bool):
        """The batch's forward into ``evaluated`` (a training one without masks reuses the eval forward), then
        the training loss; a split whose output or loss is not finite fails, and the rest run again."""
        while self.ids:
            try:
                if not (train and self.evaluated):
                    masks = self.masks if train and self.masks else None
                    self.evaluated = _forward_pass(self.spec, self.ahat, self.x, self.params, masks, ax=self.ax,
                                                   work=self.work)
                if train:
                    self._loss(self.evaluated[0])
                return
            except _NonFinite as exc:
                self._leave(exc.splits, str(exc))

    def _loss(self, logits: np.ndarray):
        """The upstream gradient of every row's training loss; raises :class:`_NonFinite` naming the rows
        whose loss is not finite.

        The loss is the mean cross-entropy over a split's training nodes
        (plus the weights-only l2 term), summed node by node in its own
        order, as a lone run would; only its finiteness is used.
        """
        t = self.train
        picked = logits.reshape(-1, self.n_classes)[t.rows]
        z = picked - picked.max(axis=1, keepdims=True)
        e = np.exp(z)
        total = e.sum(axis=1, keepdims=True)
        terms = np.log(total[:, 0]) - z[t.order, t.labels]
        loss = np.array([np.add.reduce(terms[a:b]) for a, b in t.parts]) / t.sizes
        if self.cfg.l2 > 0:
            loss += 0.5 * self.cfg.l2 * np.add.reduce(np.square(self.theta[:, self.weights]), axis=1)
        bad = np.flatnonzero(~np.isfinite(loss)).tolist()
        if bad:
            raise _NonFinite("training loss diverged", bad)
        e /= total  # the softmax of the picked rows, as _softmax gives it
        e[t.order, t.labels] -= 1.0
        self.upstream.reshape(-1, self.n_classes)[t.rows] = e / t.sizes[t.split, None]

    def _adam(self):
        beta1, beta2, eps, epoch = 0.9, 0.999, 1e-8, self.epoch
        grad, theta = self.grad, self.theta
        if self.cfg.l2 > 0:
            grad[:, self.weights] += self.cfg.l2 * theta[:, self.weights]
        self.m *= beta1
        self.m += (1 - beta1) * grad
        self.v *= beta2
        self.v += (1 - beta2) * grad * grad
        m_hat = self.m / (1 - beta1**epoch)
        v_hat = self.v / (1 - beta2**epoch)
        theta -= self.lr * m_hat / (np.sqrt(v_hat) + eps)  # in place: the records see it

    def _track(self, val_acc: np.ndarray):
        """Best snapshots, plateau halving of lr and early stopping, split by split."""
        stopped = []
        for r, acc in enumerate(val_acc.tolist()):
            if acc > self.best_val[r]:
                self.best_val[r], self.best_epoch[r] = acc, self.epoch
                self.best[r] = self.theta[r]
                self.no_improve[r] = self.sched[r] = 0
                continue
            self.no_improve[r] += 1
            self.sched[r] += 1
            if self.sched[r] >= self.cfg.lr_sched_patience:
                self.lr[r] *= 0.5
                self.sched[r] = 0
            if self.no_improve[r] >= self.cfg.early_stop_patience:
                stopped.append(r)
        if stopped:
            self._leave(stopped)

    @np.errstate(over="ignore", invalid="ignore")
    def run(self):
        """Train every split; returns ``(runs, failed)`` in split order, as :func:`train_splits` does.

        numpy's overflow and invalid-value warnings are off: every forward's
        finite check and the loss check catch each non-finite value they lead to.
        """
        for self.epoch in range(1, self.cfg.max_epochs + 1):
            if not self.ids:
                break
            if self.masks:
                self._draw()
            self._forward(train=True)
            if not self.ids:
                break
            _, norms = _backward_pass(self.spec, self.ahat_t, self.params, self.evaluated[1], self.upstream)
            for trace, row in zip(self.traces, np.atleast_2d(norms).tolist()):
                trace.append(tuple(row))
            self._adam()
            self._forward(train=False)
            if self.ids:
                self._track(self.val.accuracies(self.evaluated[0].reshape(-1, self.n_classes)))
        self._leave(range(len(self.ids)))  # the budget ran out
        return self._results()

    def _results(self):
        """Each finished split's Metrics; its test accuracy comes from one forward of every best snapshot.

        A finished split improved at epoch 1 (any accuracy beats the initial
        -1), so an eval forward checked its best snapshot: this one cannot fail.
        """
        ids = sorted(self.done)
        if not ids:
            return [], sorted(self.failed.items())
        best = np.stack([self.done[i][0] for i in ids])
        logits = model_forward(self.spec, self.ahat, self.x, _views(best[0] if len(ids) == 1 else best, self.template))
        splits = [self.splits[i] for i in ids]
        tests = _Nodes(splits, "test", self.labels).accuracies(logits.reshape(-1, self.n_classes)).tolist()
        runs = []
        for i, split, acc in zip(ids, splits, tests):
            _, epochs, best_epoch, trace = self.done[i]
            runs.append(Metrics(accuracies=(acc,), majority_baselines=(majority_baseline(self.labels, split),),
                                epochs_run=(epochs,), best_epochs=(best_epoch,), grad_norm_traces=(tuple(trace),)))
        return runs, sorted(self.failed.items())


def train_model(
    spec: ModelSpec,
    graph: SparseCountMatrix | WeightedAdjacency | PowerAggregation,
    x: np.ndarray,
    labels,
    split: SplitSpec,
    cfg: TrainConfig,
) -> Metrics:
    """One deterministic training run; returns single-run Metrics.

    The lockstep trainer of :func:`train_splits` with one split, seeded by
    ``cfg.seed``. ``graph`` is a raw count matrix or a prebuilt
    aggregation. Â and layer 0's ``Â X`` are built once per run, and an
    epoch that draws no dropout masks reuses the previous eval forward: one
    forward per epoch without dropout, two with, and one
    :func:`model_forward` of the best snapshot at the end. Divergence
    (non-finite loss or activations) raises :class:`NumericError` carrying
    the epoch at which it happened. Labels that are not one non-negative
    integer class per node, or a split that names a node outside the
    graph, raise :class:`InputError` before any training.
    """
    runs, failed = _Lockstep(spec, _resolve_ahat(spec, graph), x, labels, [split], [cfg.seed], cfg).run()
    if failed:
        raise failed[0][1]
    return runs[0]


def train_splits(spec: ModelSpec, graph, x, labels, splits, cfg: TrainConfig):
    """One run per split, seeded by ``spawn_key=(si, 17)``, all trained in lockstep.

    The splits share one aggregation, built once, and one stacked model,
    and split s's Metrics are bit for bit those of a lone
    :func:`train_model` run with its seed. A split that stops early
    leaves the batch; one that diverges fails alone, with its own epoch.
    Returns ``(runs, failed)``: the finished runs' Metrics, and a
    ``(split index, error)`` pair for each run that raised
    :class:`NumericError`. When the aggregation itself fails (a power
    whose degrees leave float64 range, or a :class:`CountOverflowError`
    from symmetrizing or adding self-loops), every split fails with that
    error. :class:`InputError` propagates.
    """
    try:
        ahat = _resolve_ahat(spec, graph)
    except (NumericError, CountOverflowError) as exc:
        return [], [(si, exc) for si in range(len(splits))]
    if not splits:
        return [], []
    seeds = [int(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, 17)).generate_state(1)[0])
             for si in range(len(splits))]
    return _Lockstep(spec, ahat, x, labels, splits, seeds, cfg).run()


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

    One boolean ladder gives them all, each counted straight off its rung
    (:func:`~hopscope.hops.support_nnz`), as :func:`~hopscope.hops.density`
    counts a pattern. A reach that raises :class:`CountOverflowError` gives
    NaN for every k; :func:`train_splits` fails each of its cells with that error.
    """
    try:
        reach = _reach_adjacency(template, graph)
    except CountOverflowError:
        return [float("nan")] * len(ks)
    cells = reach.n_rows * reach.n_cols
    return [nnz / cells if cells else 0.0 for nnz in support_nnz(reach, ks)]


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
    ks = sorted({_index(k, "k", 1) for k in k_range})
    if not ks:
        raise InputError("k_range must contain integers >= 1")
    splits = make_splits(labels, per_class_train=per_class_train, per_class_val=per_class_val, n_splits=n_splits,
                         seed=cfg.seed)
    rows = []
    for template in arches:
        for k, dens in zip(ks, _sweep_densities(template, graph, ks)):
            spec = replace(template, k=k)
            runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
            merged = Metrics.merge(runs)
            rows.append(SweepRow(arch=spec.arch, k=k, norm=spec.norm, propagation=spec.propagation,
                                 acc_mean=merged.mean, acc_std=merged.std, density=dens, failures=len(failed)))
    return rows
