"""Dense forward/backward kernels for the aggregation architectures.

Five architectures share one layer vocabulary:

* ``k_layer_gcn`` — k aggregation layers on the (normalized) adjacency;
* ``k_layer_gcn_selfloop`` — same with +I applied before normalizing;
* ``one_layer_power_k`` — a single aggregation layer whose operator is
  the normalized k-th power, applied as k sparse products;
* ``hybrid_power_plus_linear`` — one aggregation on the k-th power
  followed by k-1 plain linear layers (parameter count matches the deep
  model while the aggregation matches the single-layer one);
* ``graphsage`` — k layers of ``act(Â H W1 + H W0 + b)``.

Every layer is one :class:`LayerParams` record: weight ``W`` on ``Â H``
(on ``H`` in a plain linear layer), bias ``b`` and, for SAGE only, a
self weight ``W0`` on ``H``, so ``SageLayerParams(W0, W1, b)`` is the
GCN layer with ``W = W1`` plus a root term. One kernel computes every
layer, and ``_FIELDS`` fixes the array order of every per-layer loop.

Hidden layers apply the activation; the final layer always emits raw
logits. Feature and hidden matrices are plain float64 ndarrays. All
kernels are pure: dropout enters only through explicit mask arguments so
a given (params, masks) pair always reproduces the same numbers.

Who recomputes what: a kernel multiplies by Â through its ``@`` and the
backward by its ``.T``, with no copy (a :class:`WeightedAdjacency`'s Âᵀ is
a CSC view, and a :class:`PowerAggregation` applies its k-th power by k
sparse products and is never built). ``model_backward`` reruns the
forward. The trainer calls ``_forward_pass`` and ``_backward_pass``
directly, once per epoch each for all S splits of a cell: records are
stacked (``_views`` of an (S, P) array) and hidden states are (n, S·d),
so one sparse product per layer serves every split. Every buffer is built
once per run (a :class:`_Workspace`), and the backward writes its
gradients into views of the workspace's one flat vector. Stacking keeps
each split's bits because every product and reduction adds a split's
entries in the order a lone split adds them (:meth:`_Workspace.column_sums`,
:meth:`_Workspace.norms`). Where a layer is one column wide on either
side, numpy picks that order by memory layout, so a stacked backward
reads the layer's arrays through contiguous per-split copies; the
trainer thus stacks every model, whatever its widths. Shapes are checked
once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InputError, NumericError
from .graphs import SparseCountMatrix, _float64_field, _index, add_self_loops, degrees, symmetrize, transpose
from .normalization import _KERNELS, NORM_SCHEMES, PowerAggregation, WeightedAdjacency, normalize, normalize_power

__all__ = [
    "ARCHITECTURES",
    "PROPAGATIONS",
    "ACTIVATIONS",
    "LayerParams",
    "SageLayerParams",
    "ModelSpec",
    "uniform_features",
    "degree_features",
    "gcn_layer_forward",
    "sage_layer_forward",
    "build_aggregation",
    "init_params",
    "model_forward",
    "model_backward",
    "collapse_linear",
    "finite_difference_gradients",
    "flat_gradients",
    "max_relative_error",
    "gradient_check",
    "relu_kink_risk",
]

ARCHITECTURES = (
    "k_layer_gcn",
    "k_layer_gcn_selfloop",
    "one_layer_power_k",
    "hybrid_power_plus_linear",
    "graphsage",
)
# Architectures whose one aggregation is the normalized k-th power.
_POWER_ARCHES = ("one_layer_power_k", "hybrid_power_plus_linear")
PROPAGATIONS = ("forward", "reverse", "bidirectional")
ACTIVATIONS = ("relu", "identity")


# Array order of every per-layer loop: gradient norms, the l2 term, flat
# gradients and optimizer state. Norms and the l2 term sum in this order,
# so reordering it changes their last bits.
_FIELDS = ("W0", "W", "b")

# scipy's compiled product of a CSR matrix and a dense block of vectors (see normalization._spmm)
_MATVECS = _KERNELS["csr"][1]


@dataclass(frozen=True)
class LayerParams:
    """One layer: weight ``W``, bias ``b`` and, for SAGE only, self weight ``W0``."""

    W: np.ndarray
    b: np.ndarray
    W0: np.ndarray | None = None

    @property
    def fields(self) -> tuple[str, ...]:
        """Names of the arrays this layer holds, in ``_FIELDS`` order."""
        return _FIELDS if self.W0 is not None else _FIELDS[1:]


def SageLayerParams(W0: np.ndarray, W1: np.ndarray, b: np.ndarray) -> LayerParams:
    """A SAGE layer ``act(Â H W1 + H W0 + b)``: the GCN layer plus a self weight."""
    return LayerParams(W=W1, b=b, W0=W0)


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    k: int
    hidden_width: int = 16
    activation: str = "relu"
    norm: str = "sym"
    propagation: str = "forward"

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise InputError(f"unknown architecture {self.arch!r}")
        _index(self.k, "k", 1)
        _index(self.hidden_width, "hidden_width", 1)
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")
        if self.norm not in NORM_SCHEMES:
            raise InputError(f"unknown normalization {self.norm!r}")
        if self.propagation not in PROPAGATIONS:
            raise InputError(f"unknown propagation {self.propagation!r}")

    @property
    def n_layers(self) -> int:
        return 1 if self.arch == "one_layer_power_k" else self.k

    def layer_kinds(self) -> list[str]:
        if self.arch == "graphsage":
            return ["sage"] * self.n_layers
        if self.arch == "hybrid_power_plus_linear":
            return ["gcn"] + ["linear"] * (self.k - 1)
        return ["gcn"] * self.n_layers


# ---------------------------------------------------------------------------
# features


def uniform_features(n: int, d: int = 1) -> np.ndarray:
    """All-ones feature matrix (the no-feature setting)."""
    return np.ones((n, d), dtype=np.float64)


def degree_features(a: SparseCountMatrix, which: str = "both") -> np.ndarray:
    """Degree columns as real features; ``both`` gives (in, out)."""
    if which not in ("in", "out", "both"):
        raise InputError(f"which must be in/out/both, got {which!r}")
    cols = []
    if which in ("in", "both"):
        cols.append(degrees(a, "in").values.astype(np.float64))
    if which in ("out", "both"):
        cols.append(degrees(a, "out").values.astype(np.float64))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# single-layer kernels


def _act(name: str, z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) if name == "relu" else z


class _NonFinite(NumericError):
    """A layer output with a non-finite entry; ``splits`` lists the column blocks (splits) that hold one."""

    def __init__(self, message: str, splits: list[int]):
        super().__init__(message)
        self.splits = splits


def _check_finite(h: np.ndarray, where: str, *args, splits: int = 1):
    """Raise :class:`NumericError` naming ``where.format(*args)`` if an entry of ``h`` is not finite.

    ``h`` is ``splits`` column blocks side by side, one per split of a
    stacked forward, and the error names the blocks that hold such an
    entry. A finite sum proves every entry finite, so the elementwise test
    and the message run only when the one sum is not (an entry is, or the
    sum overflowed). The caller silences numpy's overflow and invalid-value
    warnings.
    """
    if math.isfinite(np.add.reduce(h, axis=None)):
        return
    bad = ~np.isfinite(h.reshape(len(h), splits, -1)).all(axis=(0, 2))
    if bad.any():
        raise _NonFinite(f"non-finite values in {where.format(*args)}", np.flatnonzero(bad).tolist())


def _split_view(a: np.ndarray, splits: int) -> np.ndarray:
    """``a``, S = ``splits`` column blocks of width d side by side, as an (S, n, d) view; ``a`` itself when S = 1."""
    return a if splits == 1 else a.reshape(len(a), splits, -1).swapaxes(0, 1)


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in ``a`` (its last two axes)."""
    return a.swapaxes(-1, -2)


def _layer(p: LayerParams, kind: str, h: np.ndarray, m: np.ndarray | None, z: np.ndarray):
    """The one layer kernel: writes ``M W + H W0 + b``, before the activation, into ``z``.

    ``M`` is ``m`` (``Â H``) for an aggregation layer and ``H`` for a
    ``linear`` one (``m`` is None); ``H W0`` enters only for SAGE layers.
    Arrays are split views (:func:`_split_view`) and ``p`` is a 2-D or a
    stacked record, so one call serves every split; ``H`` and ``M`` may
    also be 2-D arrays shared by all of them.
    """
    if (kind == "sage") != (p.W0 is not None):
        raise InputError(f"{kind} layer {'without' if p.W0 is None else 'with'} a self weight W0")
    np.matmul(h if m is None else m, p.W, out=z)
    if p.W0 is not None:
        z += np.matmul(h, p.W0)
    z += p.b


def _layer_forward(ahat: WeightedAdjacency, h: np.ndarray, p: LayerParams, act: str, kind: str) -> np.ndarray:
    h = _features(ahat, h, [p])
    z = np.empty((len(h), p.W.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        _layer(p, kind, h, ahat @ h, z)
        out = _act(act, z)
        _check_finite(out, "{} layer output", kind)
    return out


def gcn_layer_forward(ahat: WeightedAdjacency, h: np.ndarray, p: LayerParams, act: str = "relu") -> np.ndarray:
    """``act(Â H W + b)`` with the bias broadcast across rows."""
    return _layer_forward(ahat, h, p, act, "gcn")


def sage_layer_forward(ahat: WeightedAdjacency, h: np.ndarray, p: LayerParams, act: str = "relu") -> np.ndarray:
    """``act(Â H W1 + H W0 + b)``; with a zero Â this is a plain MLP layer."""
    return _layer_forward(ahat, h, p, act, "sage")


# ---------------------------------------------------------------------------
# whole-model plumbing


def _propagated(a: SparseCountMatrix, propagation: str) -> SparseCountMatrix:
    if propagation == "forward":
        return a
    if propagation == "reverse":
        return transpose(a)
    return symmetrize(a)


def _reach_adjacency(spec: ModelSpec, a: SparseCountMatrix) -> SparseCountMatrix:
    """Propagation, then self-loops for ``k_layer_gcn_selfloop``: ``support(M^k)`` is the k-hop reach."""
    p = _propagated(a, spec.propagation)
    if spec.arch == "k_layer_gcn_selfloop":
        p = add_self_loops(p)
    return p


def build_aggregation(spec: ModelSpec, a: SparseCountMatrix) -> WeightedAdjacency | PowerAggregation:
    """The single Â a model uses, built once from the raw adjacency.

    Order: propagation transform, optional self-loops, then normalization
    using the degrees of whatever matrix came out of the structural steps.
    A power architecture gets a :class:`PowerAggregation`, never built as
    a matrix; one whose degrees leave float64 range raises :class:`NumericError`.
    """
    p = _reach_adjacency(spec, a)
    if spec.arch in _POWER_ARCHES:
        return normalize_power(p, spec.k, spec.norm)
    return normalize(p, spec.norm)


def _glorot(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-lim, lim, size=(d_in, d_out))


def init_params(spec: ModelSpec, in_dim: int, n_classes: int, rng: np.random.Generator):
    """Glorot-uniform weights and zero biases for every layer.

    A SAGE layer draws its self weight ``W0`` before ``W``.
    """
    kinds = spec.layer_kinds()
    widths = [in_dim] + [spec.hidden_width] * (len(kinds) - 1) + [n_classes]
    params = []
    for kind, d_in, d_out in zip(kinds, widths, widths[1:]):
        w0 = _glorot(rng, d_in, d_out) if kind == "sage" else None
        params.append(LayerParams(W=_glorot(rng, d_in, d_out), b=np.zeros(d_out), W0=w0))
    return params


def _resolve_ahat(spec: ModelSpec, a) -> WeightedAdjacency | PowerAggregation:
    return a if isinstance(a, (WeightedAdjacency, PowerAggregation)) else build_aggregation(spec, a)


class _Workspace(list):
    """The per-layer caches of a forward of S splits on n nodes, and every buffer a forward and
    backward write: built once, reused by every pass on the same shapes.

    Each buffer is (n, S·d), split s in columns ``s·d:(s+1)·d``, so one
    sparse product serves every split, and comes with its split view. A
    layer's cache holds its ``z`` (also for c07 and :func:`relu_kink_risk`),
    its ``Â H`` as ``m`` (None in a linear layer) and its dropout ``mask``.
    What only a backward needs (the gradient vector, the all-ones row, the
    norm runs) is made on its first use.
    """

    def __init__(self, params, n: int):
        self.splits = params[0].W.shape[0] if params[0].W.ndim == 3 else 1
        self._like = params
        self._scratch = {}
        last = len(params) - 1
        super().__init__(dict(zip(("z", "z3"), self._buffer(n, p.W.shape[-1])), last=i == last)
                         for i, p in enumerate(params))

    def _buffer(self, n: int, d: int):
        a = np.empty((n, self.splits * d))
        return a, _split_view(a, self.splits)

    def scratch(self, key, d: int):
        """A buffer of width d and its split view, made on first use; ``key`` keeps apart buffers in use at once."""
        if (key, d) not in self._scratch:
            self._scratch[key, d] = self._buffer(len(self[0]["z"]), d)
        return self._scratch[key, d]

    def output(self, c: dict, activation: str):
        """``act(z) * mask`` of layer cache ``c`` and its split view: in a scratch buffer, or ``z`` when there is nothing to apply."""
        if c["last"] or (activation != "relu" and c["mask"] is None):
            return c["z"], c["z3"]
        act = self.scratch("act", c["z3"].shape[-1])
        out = np.maximum(c["z"], 0.0, out=act[0]) if activation == "relu" else c["z"]
        if c["mask"] is not None:
            np.multiply(out, c["mask"], out=act[0])
        return act

    @cached_property
    def gradient(self):
        """``(grad, records)``: the flat gradient vector, (P,) or (S, P) in the layout of
        :func:`flat_gradients`, and records viewing it; every backward on this workspace overwrites them."""
        lead = (self.splits,) if self._like[0].W.ndim == 3 else ()
        grad = np.empty(lead + (sum(math.prod(_split_shape(p, n)) for p in self._like for n in p.fields),))
        return grad, _views(grad, self._like)

    @cached_property
    def _ones(self):
        """The index and value arrays of the 1×n all-ones CSR matrix."""
        n = len(self[0]["z"])
        return np.array([0, n], dtype=np.int32), np.arange(n, dtype=np.int32), np.ones(n)

    def column_sums(self, g: np.ndarray) -> np.ndarray:
        """The column sums of an (n, w) buffer ``g``, w >= 2, as a new (w,) array.

        One compiled ``csr_matvecs`` call of the all-ones row times ``g``. It
        adds the rows in node order, as numpy's column reduce does for w >= 2,
        so the bits are numpy's (only a NaN's sign may differ where two meet).
        """
        n, w = g.shape
        out = np.zeros(w)
        _MATVECS(1, n, w, *self._ones, g, out)
        return out

    @cached_property
    def _norm_runs(self):
        """Runs of consecutive layers whose arrays have the same shapes, as ``(first layer, layers,
        start, block, spans)``: the run takes ``layers`` blocks of ``block`` entries of the flat
        gradient from ``start`` on, and ``spans`` are the ``(begin, end)`` of each array in a block,
        in ``_FIELDS`` order."""
        runs, start, prev = [], 0, None
        for i, p in enumerate(self._like):
            shapes = [(n, _split_shape(p, n)) for n in p.fields]
            ends = np.cumsum([0] + [math.prod(s) for _, s in shapes]).tolist()
            if shapes == prev:
                runs[-1][1] += 1
            else:
                runs.append([i, 1, start, ends[-1], list(zip(ends[:-1], ends[1:]))])
            prev, start = shapes, start + ends[-1]
        return runs

    def norms(self, grad: np.ndarray) -> np.ndarray:
        """Each layer's gradient norm, (layers,) or (S, layers), from the flat ``grad``.

        Each array's square sum is one pairwise reduce over its contiguous
        entries, as over the array alone, and a layer adds its arrays in
        ``_FIELDS`` order: the bits of the per-array norm.
        """
        sq = np.square(grad)
        lead = grad.shape[:-1]
        sums = np.empty(lead + (len(self),))
        for first, layers, start, block, spans in self._norm_runs:
            v = sq[..., start:start + layers * block].reshape(lead + (layers, block))
            out = sums[..., first:first + layers]
            (a, b), *rest = spans
            np.add.reduce(v[..., a:b], axis=-1, out=out)
            for a, b in rest:
                out += np.add.reduce(v[..., a:b], axis=-1)
        return np.sqrt(sums, out=sums)


def _forward_pass(spec, ahat, x, params, hidden_masks, *, ax=None, work=None):
    """Shared forward; returns logits plus per-layer caches for backward.

    ``params`` are 2-D layer records, or stacked ones (see :func:`_views`)
    of S splits that share ``ahat`` and ``x``: the logits, every cache and
    each hidden mask are then (n, S·d), split s in columns ``s·d:(s+1)·d``.
    The caches are ``work`` (a :class:`_Workspace` for these shapes; a new
    one if None). ``ax`` is layer 0's ``Â X`` when the caller holds it: no
    parameter touches it. A non-finite layer output raises
    :class:`NumericError`, naming the splits that hold it.
    """
    kinds = spec.layer_kinds()
    if len(params) != len(kinds):
        raise InputError(f"{spec.arch} with k={spec.k} needs {len(kinds)} layers, got {len(params)}")
    if work is None:
        work = _Workspace(params, len(x))
    splits = work.splits
    h = h3 = work.x = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (kind, p, c) in enumerate(zip(kinds, params, work)):
            m = None
            if kind != "linear":
                m = (ahat @ x if ax is None else ax) if i == 0 else _split_view(ahat @ h, splits)
            _layer(p, kind, h3, m, c["z3"])
            c["m"] = m
            c["mask"] = None if c["last"] or hidden_masks is None else hidden_masks[i]
            h, h3 = work.output(c, spec.activation)
            _check_finite(h, "layer {} output", i, splits=splits)
    return h, work


def _features(ahat: WeightedAdjacency, x, params=()) -> np.ndarray:
    """``x`` as float64 with one row per node of ``ahat``; layer by layer,
    ``W`` and ``W0`` must be ``(width in, width out)`` and ``b`` ``(width out,)``
    (after the split axis of a stacked record)."""
    x = _float64_field(x, "feature matrix")
    if x.ndim != 2 or x.shape[0] != ahat.n_cols:
        raise InputError(f"feature matrix must be ({ahat.n_cols}, d), got {x.shape}")
    width = x.shape[1]
    for i, p in enumerate(params):
        shape = (width, p.W.shape[-1])
        if p.W.shape[-2:] != shape or p.b.shape[-1:] != shape[1:] or p.W0 is not None and p.W0.shape[-2:] != shape:
            raise InputError(f"shape mismatch: layer {i} takes {width} cols, got W {p.W.shape} and b {p.b.shape}")
        width = shape[1]
    return x


def model_forward(spec: ModelSpec, a, x: np.ndarray, params, hidden_masks=None) -> np.ndarray:
    """Logits of the whole model; ``a`` is a raw count matrix or a
    prebuilt aggregation from :func:`build_aggregation`. Stacked
    ``params`` of S >= 2 splits (see :func:`_views`) give (n, S·classes)
    logits, split s in columns ``s·classes:(s+1)·classes``."""
    ahat = _resolve_ahat(spec, a)
    x = _features(ahat, x, params)
    logits, _ = _forward_pass(spec, ahat, x, params, hidden_masks)
    return logits


def model_backward(spec: ModelSpec, a, x: np.ndarray, params, upstream_grad: np.ndarray, hidden_masks=None):
    """Exact reverse-mode gradients of ``sum(upstream * logits)``.

    Returns ``(grads, layer_grad_norms)`` where ``grads`` mirrors the
    structure of ``params`` and each norm is the Frobenius norm of that
    layer's stacked weight/bias gradients (the vanishing-gradient
    diagnostic). It reruns the forward for its caches; ``Âᵀ`` is a CSC view of Â.
    """
    ahat = _resolve_ahat(spec, a)
    x = _features(ahat, x, params)
    logits, caches = _forward_pass(spec, ahat, x, params, hidden_masks)
    upstream_grad = _float64_field(upstream_grad, "upstream gradient")
    if upstream_grad.shape != logits.shape:
        raise InputError(f"upstream gradient must have shape {logits.shape}")
    return _backward_pass(spec, ahat.T, params, caches, upstream_grad)


def _backward_pass(spec, ahat_t, params, caches, upstream):
    """Reverse sweep over ``_forward_pass``'s caches down to layer 0's parameters; returns ``(grads, norms)``.

    ``grads`` are the records of the workspace's flat gradient vector
    (``caches.gradient``), which the next backward on the same caches
    overwrites. ``norms`` are each layer's ``sqrt((sum(W0²) + sum(W²)) +
    sum(b²))``: a list for 2-D records, an (S, layers) array for stacked
    ones. A linear or SAGE layer's input is rebuilt from the layer below's
    cache, bit for bit. A stacked layer one column wide on either side
    reads its upstream gradient, input and ``M`` as contiguous (S, n, d)
    copies, so its products and bias sum run in a lone split's order. A
    one-column bias gradient is ``np.add.reduce``, which sums each
    contiguous column pairwise; a wider one is :meth:`_Workspace.column_sums`
    of the (n, S·d) buffer.
    """
    work, splits = caches, caches.splits
    grad, grads = work.gradient
    g = upstream
    for i in range(len(params) - 1, -1, -1):
        c, p, d = work[i], params[i], grads[i]
        if c["mask"] is not None:
            g = np.multiply(g, c["mask"], out=g)  # g is a buffer of this sweep: the output layer is never masked
        if spec.activation == "relu" and not c["last"]:
            g = np.multiply(g, c["z"] > 0, out=g)
        gz = _split_view(g, splits)
        h = None
        if c["m"] is None or p.W0 is not None:
            h = work.x if i == 0 else work.output(work[i - 1], spec.activation)[1]
        m = c["m"]
        if splits > 1 and 1 in p.W.shape[-2:]:
            gz, h, m = (a if a is None else np.ascontiguousarray(a) for a in (gz, h, m))
        if p.W0 is not None:
            np.matmul(_mT(h), gz, out=d.W0)
        np.matmul(_mT(h if m is None else m), gz, out=d.W)
        if p.W.shape[-1] == 1:
            np.add.reduce(gz, axis=-2, out=d.b, keepdims=d.b.ndim > 1)
        else:
            d.b[...] = work.column_sums(g).reshape(d.b.shape)
        if i == 0:
            break
        g, gw = work.scratch(i % 2, p.W.shape[-2])  # not the buffer that holds gz
        np.matmul(gz, _mT(p.W), out=gw)
        if c["m"] is not None:
            g = ahat_t @ g
        if p.W0 is not None:
            _split_view(g, splits)[...] += np.matmul(gz, _mT(p.W0))
    norms = work.norms(grad)
    return grads, (norms if grad.ndim == 2 else norms.tolist())


def collapse_linear(a: SparseCountMatrix, x: np.ndarray, params, k: int) -> np.ndarray:
    """Direct evaluation of ``A^k X (W1 ... Wk)`` as dense float algebra.

    This is the closed form a k-layer aggregation collapses to when the
    activation is the identity, biases are zero, and the raw counts are
    used unnormalized; it is computed by an independent dense route
    (numpy matrix_power) so it can act as the equivalence oracle.
    """
    if len(params) != k:
        raise InputError(f"need {k} weight layers, got {len(params)}")
    for p in params:
        if np.any(p.b != 0):
            raise InputError("collapse_linear requires zero biases")
    ad = a.to_dense().astype(np.float64)
    out = np.linalg.matrix_power(ad, k) @ np.asarray(x, dtype=np.float64)
    for p in params:
        out = out @ p.W
    return out


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_gradients(spec: ModelSpec, a, x, params, upstream_grad, step: float = 1e-4):
    """Central-difference gradients of ``sum(upstream * logits)``, bumping a flat copy of ``params``."""
    ahat = _resolve_ahat(spec, a)
    theta, trial = _packed(params)
    g = np.zeros_like(theta)
    for idx in range(theta.size):
        orig = theta[idx]
        for sign in (+1.0, -1.0):
            theta[idx] = orig + sign * step
            g[idx] += sign * float(np.sum(upstream_grad * model_forward(spec, ahat, x, trial)))
        theta[idx] = orig
    return _views(g / (2.0 * step), params)


def flat_gradients(grads) -> np.ndarray:
    """The flat layout: every array of every layer, raveled into a new float64 vector in ``_FIELDS`` order."""
    return np.concatenate([getattr(g, n).ravel() for g in grads for n in g.fields], dtype=np.float64)


def _packed(params):
    """``(theta, views)``: a flat copy of ``params`` and records viewing it."""
    theta = flat_gradients(params)
    return theta, _views(theta, params)


def _split_shape(p, n: str) -> tuple:
    """The shape of one split's array ``n`` of a 2-D or a stacked record ``p`` (a stacked bias is (S, 1, width out))."""
    shape = getattr(p, n).shape
    return shape if p.W.ndim == 2 else shape[2 if n == "b" else 1:]


def _views(flat: np.ndarray, like):
    """Records shaped like the records ``like`` (2-D or stacked) whose arrays are reshaped views into ``flat``.

    An (S, P) ``flat``, one split a row and S >= 2 (a lone split trains on
    2-D records), gives stacked records: each array leads with the split
    axis, and a bias is (S, 1, width out), so that it broadcasts over the
    nodes.
    """
    lead = flat.shape[:-1]
    parts = iter(np.split(flat, np.cumsum([math.prod(_split_shape(p, n)) for p in like for n in p.fields])[:-1],
                          axis=-1))

    def shape(p, n):
        return lead + ((1,) if lead and n == "b" else ()) + _split_shape(p, n)

    return [replace(p, **{n: next(parts).reshape(shape(p, n)) for n in p.fields}) for p in like]


def max_relative_error(got, want) -> float:
    """Largest absolute discrepancy scaled by the largest magnitude seen."""
    got, want = _float64_field(got, "got"), _float64_field(want, "want")
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0), 1e-12)
    return float(np.abs(got - want).max(initial=0.0) / scale)


def relu_kink_risk(spec: ModelSpec, a, x, params, tol: float = 1e-3) -> bool:
    """True if any hidden pre-activation sits within ``tol`` of the ReLU kink."""
    if spec.activation != "relu":
        return False
    ahat = _resolve_ahat(spec, a)
    _, caches = _forward_pass(spec, ahat, _features(ahat, x, params), params, None)
    for c in caches:
        if not c["last"] and np.any(np.abs(c["z"]) < tol):
            return True
    return False


def gradient_check(spec: ModelSpec, a, x, params, upstream_grad, step: float = 1e-4) -> float:
    """Max relative error between analytic and finite-difference gradients."""
    ahat = _resolve_ahat(spec, a)
    analytic, _ = model_backward(spec, ahat, x, params, upstream_grad)
    numeric = finite_difference_gradients(spec, ahat, x, params, upstream_grad, step=step)
    return max_relative_error(flat_gradients(analytic), flat_gradients(numeric))
