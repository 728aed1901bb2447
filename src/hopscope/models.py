"""Dense forward/backward kernels for the aggregation architectures.

Five architectures share one layer vocabulary:

* ``k_layer_gcn`` — k aggregation layers on the (normalized) adjacency;
* ``k_layer_gcn_selfloop`` — same with +I applied before normalizing;
* ``one_layer_power_k`` — a single aggregation layer whose matrix is the
  normalized k-th power;
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

Who recomputes what: ``model_forward`` builds the CSR of Â per call;
``model_backward`` also reruns the forward and builds ``Âᵀ``. The
trainer builds both once per run, computes layer 0's ``Â X`` once per
run (it depends on no parameter, and dropout masks only layer outputs),
and calls ``_forward_pass`` and ``_backward_pass`` (a reverse sweep over
the forward's caches) directly, on records whose arrays are views into
one flat float64 vector in ``_FIELDS`` order (``_packed``); Adam, its
snapshots and the finite differences work on that vector. Shapes are
checked once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericError
from .graphs import SparseCountMatrix, add_self_loops, degrees, symmetrize, transpose
from .hops import mat_power_count
from .normalization import NORM_SCHEMES, WeightedAdjacency, normalize

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
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.hidden_width < 1:
            raise InputError("hidden_width must be at least 1")
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


def _check_finite(h: np.ndarray, where: str):
    if not np.all(np.isfinite(h)):
        raise NumericError(f"non-finite values in {where}")


def _layer(ahat_sp, h: np.ndarray, p: LayerParams, kind: str, m=None):
    """The one layer kernel: ``(Â H, Â H W + H W0 + b)`` before the activation.

    A ``linear`` layer skips the aggregation (``Â H`` is None and ``W``
    acts on ``H``); ``H W0`` enters only for SAGE layers. ``m`` is a
    precomputed ``Â H``, if the caller has one.
    """
    if (kind == "sage") != (p.W0 is not None):
        raise InputError(f"{kind} layer {'without' if p.W0 is None else 'with'} a self weight W0")
    if m is None and kind != "linear":
        m = ahat_sp @ h
    z = (h if m is None else m) @ p.W
    if p.W0 is not None:
        z = z + h @ p.W0
    return m, z + p.b


def _layer_forward(ahat: WeightedAdjacency, h: np.ndarray, p: LayerParams, act: str, kind: str) -> np.ndarray:
    h = _features(ahat, h, [p])
    out = _act(act, _layer(ahat.to_scipy(), h, p, kind)[1])
    _check_finite(out, f"{kind} layer output")
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


def build_aggregation(spec: ModelSpec, a: SparseCountMatrix) -> WeightedAdjacency:
    """The single Â a model uses, built once from the raw adjacency.

    Order: propagation transform, optional self-loops, optional k-th
    power (for the power architectures), then normalization using the
    degrees of whatever matrix came out of the structural steps.
    """
    p = _reach_adjacency(spec, a)
    if spec.arch in _POWER_ARCHES:
        p = mat_power_count(p, spec.k)
    return normalize(p, spec.norm)


def _layer_dims(spec: ModelSpec, in_dim: int, n_classes: int) -> list[tuple[int, int]]:
    n_layers = spec.n_layers
    dims = []
    for i in range(n_layers):
        d_in = in_dim if i == 0 else spec.hidden_width
        d_out = n_classes if i == n_layers - 1 else spec.hidden_width
        dims.append((d_in, d_out))
    return dims


def _glorot(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-lim, lim, size=(d_in, d_out))


def init_params(spec: ModelSpec, in_dim: int, n_classes: int, rng: np.random.Generator):
    """Glorot-uniform weights and zero biases for every layer.

    A SAGE layer draws its self weight ``W0`` before ``W``.
    """
    params = []
    for kind, (d_in, d_out) in zip(spec.layer_kinds(), _layer_dims(spec, in_dim, n_classes)):
        w0 = _glorot(rng, d_in, d_out) if kind == "sage" else None
        params.append(LayerParams(W=_glorot(rng, d_in, d_out), b=np.zeros(d_out), W0=w0))
    return params


def _resolve_ahat(spec: ModelSpec, a) -> WeightedAdjacency:
    if isinstance(a, WeightedAdjacency):
        return a
    return build_aggregation(spec, a)


def _forward_pass(spec, ahat_sp, x, params, hidden_masks, *, ax=None):
    """Shared forward; returns logits plus per-layer caches for backward.

    ``ax`` is layer 0's ``Â X``, which no parameter touches: a caller
    that runs many forwards on the same ``X`` computes it once.
    """
    kinds = spec.layer_kinds()
    if len(params) != len(kinds):
        raise InputError(f"{spec.arch} with k={spec.k} needs {len(kinds)} layers, got {len(params)}")
    h = x
    caches = []
    n_layers = len(kinds)
    for i, (kind, p) in enumerate(zip(kinds, params)):
        last = i == n_layers - 1
        m, z = _layer(ahat_sp, h, p, kind, ax if i == 0 else None)
        out = z if last else _act(spec.activation, z)
        mask = None
        if not last and hidden_masks is not None and hidden_masks[i] is not None:
            mask = hidden_masks[i]
            out = out * mask
        _check_finite(out, f"layer {i} output")
        caches.append({"kind": kind, "h": h, "m": m, "z": z, "mask": mask, "last": last})
        h = out
    return h, caches


def _features(ahat: WeightedAdjacency, x, params=()) -> np.ndarray:
    """``x`` as float64 with one row per node of ``ahat``; layer by layer,
    ``W`` and ``W0`` must be ``(width in, width out)`` and ``b`` ``(width out,)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != ahat.n_cols:
        raise InputError(f"feature matrix must be ({ahat.n_cols}, d), got {x.shape}")
    width = x.shape[1]
    for i, p in enumerate(params):
        shape = (width, p.W.shape[-1])
        if p.W.shape != shape or p.b.shape != shape[1:] or p.W0 is not None and p.W0.shape != shape:
            raise InputError(f"shape mismatch: layer {i} takes {width} cols, got W {p.W.shape} and b {p.b.shape}")
        width = shape[1]
    return x


def model_forward(spec: ModelSpec, a, x: np.ndarray, params, hidden_masks=None) -> np.ndarray:
    """Logits of the whole model; ``a`` is a raw count matrix or a
    prebuilt aggregation from :func:`build_aggregation`."""
    ahat = _resolve_ahat(spec, a)
    x = _features(ahat, x, params)
    logits, _ = _forward_pass(spec, ahat.to_scipy(), x, params, hidden_masks)
    return logits


def model_backward(spec: ModelSpec, a, x: np.ndarray, params, upstream_grad: np.ndarray, hidden_masks=None):
    """Exact reverse-mode gradients of ``sum(upstream * logits)``.

    Returns ``(grads, layer_grad_norms)`` where ``grads`` mirrors the
    structure of ``params`` and each norm is the Frobenius norm of that
    layer's stacked weight/bias gradients (the vanishing-gradient
    diagnostic). It reruns the forward for its caches and builds ``Âᵀ``.
    """
    ahat = _resolve_ahat(spec, a)
    x = _features(ahat, x, params)
    ahat_sp = ahat.to_scipy()
    logits, caches = _forward_pass(spec, ahat_sp, x, params, hidden_masks)
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    if upstream_grad.shape != logits.shape:
        raise InputError(f"upstream gradient must have shape {logits.shape}")
    return _backward_pass(spec, ahat_sp.T.tocsr(), params, caches, upstream_grad)


def _backward_pass(spec, ahat_t, params, caches, upstream):
    """Reverse sweep over ``_forward_pass``'s caches down to layer 0's parameters; returns ``(grads, norms)``."""
    grads: list = [None] * len(params)
    g = upstream
    for i in range(len(params) - 1, -1, -1):
        c = caches[i]
        p = params[i]
        if c["mask"] is not None:
            g = g * c["mask"]
        gz = g * (c["z"] > 0) if spec.activation == "relu" and not c["last"] else g
        src = c["h"] if c["m"] is None else c["m"]
        dW0 = None if p.W0 is None else c["h"].T @ gz
        grads[i] = LayerParams(W=src.T @ gz, b=gz.sum(axis=0), W0=dW0)
        if i == 0:
            break
        g = gz @ p.W.T
        if c["m"] is not None:
            g = ahat_t @ g
        if p.W0 is not None:
            g = g + gz @ p.W0.T

    norms = [float(np.sqrt(sum(np.sum(getattr(gp, n) ** 2) for n in gp.fields))) for gp in grads]
    return grads, norms


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


def _views(flat: np.ndarray, like):
    """Records shaped like ``like`` whose arrays are reshaped views into ``flat``."""
    parts = iter(np.split(flat, np.cumsum([getattr(p, n).size for p in like for n in p.fields])[:-1]))
    return [replace(p, **{n: next(parts).reshape(getattr(p, n).shape) for n in p.fields}) for p in like]


def max_relative_error(got, want) -> float:
    """Largest absolute discrepancy scaled by the largest magnitude seen."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0), 1e-12)
    return float(np.abs(got - want).max(initial=0.0) / scale)


def relu_kink_risk(spec: ModelSpec, a, x, params, tol: float = 1e-3) -> bool:
    """True if any hidden pre-activation sits within ``tol`` of the ReLU kink."""
    if spec.activation != "relu":
        return False
    ahat = _resolve_ahat(spec, a)
    _, caches = _forward_pass(spec, ahat.to_scipy(), _features(ahat, x, params), params, None)
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
