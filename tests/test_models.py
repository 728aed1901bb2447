import zlib

import numpy as np
import pytest

from hopscope import (
    ARCHITECTURES,
    LayerParams,
    ModelSpec,
    SageLayerParams,
    add_self_loops,
    build_aggregation,
    collapse_linear,
    degree_features,
    finite_difference_gradients,
    from_edge_list,
    gcn_layer_forward,
    gradient_check,
    init_params,
    max_relative_error,
    model_backward,
    model_forward,
    normalize,
    normalize_power,
    sage_layer_forward,
    uniform_features,
)
from hopscope import models
from hopscope.errors import InputError, NumericError
from hopscope.models import relu_kink_risk
from hopscope.training import SplitSpec, TrainConfig, train_model


def p3():
    return from_edge_list([(0, 1), (1, 2)], 3)


def random_digraph(rng, n, p=0.35):
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return from_edge_list(edges, n)


def kink_free_instance(spec, rng, n=6, d=3, n_classes=3, p=0.3):
    from dataclasses import replace

    for _ in range(50):
        g = random_digraph(rng, n, p)
        x = rng.standard_normal((n, d))
        params = init_params(spec, d, n_classes, rng)
        params = [replace(q, b=0.5 * rng.standard_normal(q.b.shape)) for q in params]
        if not relu_kink_risk(spec, g, x, params):
            return g, x, params
    raise AssertionError("no kink-free instance found")


# ---------------------------------------------------------------------------
# feature constructors


def test_uniform_features():
    assert np.array_equal(uniform_features(3), np.ones((3, 1)))
    assert uniform_features(4, 2).shape == (4, 2)


def test_degree_features_p3():
    a = p3()
    assert degree_features(a, "in").ravel().tolist() == [0, 1, 1]
    assert np.array_equal(degree_features(a, "both"), [[0, 1], [1, 1], [1, 0]])


# ---------------------------------------------------------------------------
# layer kernels vs dense evaluation


def test_gcn_layer_identity_aggregation():
    rng = np.random.default_rng(0)
    ident = normalize(add_self_loops(from_edge_list([], 4)), "none")
    h = rng.standard_normal((4, 3))
    p = LayerParams(W=rng.standard_normal((3, 2)), b=np.zeros(2))
    out = gcn_layer_forward(ident, h, p, act="identity")
    assert np.allclose(out, h @ p.W)


def test_gcn_layer_zero_aggregation_gives_bias():
    ident = normalize(from_edge_list([], 4), "none")
    p = LayerParams(W=np.ones((3, 2)), b=np.array([1.0, -2.0]))
    out = gcn_layer_forward(ident, np.ones((4, 3)), p, act="identity")
    assert np.allclose(out, np.tile([1.0, -2.0], (4, 1)))


def test_gcn_layer_matches_dense_triple_product():
    rng = np.random.default_rng(1)
    g = random_digraph(rng, 5)
    ahat = normalize(g, "sym")
    h = rng.standard_normal((5, 4))
    p = LayerParams(W=rng.standard_normal((4, 3)), b=rng.standard_normal(3))
    got = gcn_layer_forward(ahat, h, p, act="relu")
    want = np.maximum(ahat.to_dense() @ h @ p.W + p.b, 0)
    assert np.allclose(got, want, atol=1e-12)


def test_sage_layer_degenerations():
    rng = np.random.default_rng(2)
    g = random_digraph(rng, 5)
    ahat = normalize(g, "row")
    zero_ahat = normalize(from_edge_list([], 5), "none")
    h = rng.standard_normal((5, 3))
    w0 = rng.standard_normal((3, 2))
    w1 = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    # zero neighbors -> plain MLP
    got = sage_layer_forward(zero_ahat, h, SageLayerParams(W0=w0, W1=w1, b=b), act="relu")
    assert np.allclose(got, np.maximum(h @ w0 + b, 0))
    # zero self weight -> plain aggregation layer
    got = sage_layer_forward(ahat, h, SageLayerParams(W0=np.zeros_like(w0), W1=w1, b=b), act="relu")
    want = gcn_layer_forward(ahat, h, LayerParams(W=w1, b=b), act="relu")
    assert np.allclose(got, want)


def test_sage_record_is_gcn_record_plus_self_weight():
    w0, w1, b = np.ones((3, 2)), np.full((3, 2), 2.0), np.zeros(2)
    p = SageLayerParams(W0=w0, W1=w1, b=b)
    assert isinstance(p, LayerParams)
    assert p.W is w1 and p.W0 is w0
    assert p.fields == ("W0", "W", "b")
    assert LayerParams(W=w1, b=b).fields == ("W", "b")


def test_layer_record_must_match_layer_kind():
    rng = np.random.default_rng(4)
    ahat = normalize(p3(), "none")
    h = rng.standard_normal((3, 2))
    gcn = LayerParams(W=np.ones((2, 2)), b=np.zeros(2))
    sage = SageLayerParams(W0=np.ones((2, 2)), W1=np.ones((2, 2)), b=np.zeros(2))
    with pytest.raises(InputError):
        sage_layer_forward(ahat, h, gcn)
    with pytest.raises(InputError):
        gcn_layer_forward(ahat, h, sage)
    with pytest.raises(InputError):
        model_forward(ModelSpec(arch="graphsage", k=1), p3(), h, [gcn])
    with pytest.raises(InputError):
        model_forward(ModelSpec(arch="k_layer_gcn", k=1), p3(), h, [sage])


def test_layer_shape_errors():
    rng = np.random.default_rng(3)
    ahat = normalize(p3(), "none")
    with pytest.raises(InputError):
        gcn_layer_forward(ahat, rng.standard_normal((4, 2)), LayerParams(np.ones((2, 2)), np.zeros(2)))
    with pytest.raises(InputError):
        gcn_layer_forward(ahat, rng.standard_normal((3, 5)), LayerParams(np.ones((2, 2)), np.zeros(2)))
    # whole-model entry points: feature rows, and W / W0 against each layer's input width
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=4, norm="sym")
    params = init_params(spec, 2, 3, rng)
    short_x = rng.standard_normal((2, 2))
    with pytest.raises(InputError):
        model_backward(spec, p3(), short_x, params, np.ones((3, 3)))
    with pytest.raises(InputError):
        relu_kink_risk(spec, p3(), short_x, params)
    with pytest.raises(InputError):
        model_forward(spec, p3(), rng.standard_normal((3, 5)), params)
    with pytest.raises(InputError):  # layer 1 expects width 4, gets 3
        model_forward(spec, p3(), rng.standard_normal((3, 2)),
                      [params[0], LayerParams(W=np.ones((3, 3)), b=np.zeros(3))])
    sage = ModelSpec(arch="graphsage", k=1, norm="sym")
    for w0, b in [((5, 3), 3), ((2, 4), 3), ((2, 3), 1)]:  # W0 rows, W0 cols, a broadcastable b
        with pytest.raises(InputError):
            model_forward(sage, p3(), rng.standard_normal((3, 2)),
                          [SageLayerParams(W0=np.ones(w0), W1=np.ones((2, 3)), b=np.zeros(b))])


@pytest.mark.parametrize("x, message", [
    ([["a", "b"]] * 3, "feature matrix must hold real numbers, got <U1 values$"),
    ([[1.0, 2.0], [3.0], [4.0, 5.0]], "feature matrix must form a regular array"),
    ([[1.0, None]] * 3, "feature matrix must hold real numbers, got object values$"),
    (np.full((3, 2), 1 + 2j), "feature matrix must hold real numbers, got complex128 values$"),
], ids=["strings", "ragged", "none", "complex"])
@pytest.mark.parametrize("call", ["model_forward", "model_backward", "train_model"])
def test_features_must_be_real_numbers(x, message, call):
    spec = ModelSpec(arch="k_layer_gcn", k=1, hidden_width=2)
    params = init_params(spec, 2, 2, np.random.default_rng(0))
    split, cfg = SplitSpec(train=[0], val=[1], test=[2], seed=0), TrainConfig(max_epochs=2, early_stop_patience=1)
    calls = {"model_forward": lambda: model_forward(spec, p3(), x, params),
             "model_backward": lambda: model_backward(spec, p3(), x, params, np.ones((3, 2))),
             "train_model": lambda: train_model(spec, p3(), x, [0, 1, 0], split, cfg)}
    with pytest.raises(InputError, match=message):
        calls[call]()


@pytest.mark.parametrize("call, message", [
    (lambda: uniform_features(-1), "n must be at least 0, got -1$"),
    (lambda: uniform_features(2.5), "n must be an integer, got 2.5$"),
    (lambda: uniform_features(3, 0), "d must be at least 1, got 0$"),
    (lambda: init_params(ModelSpec(arch="k_layer_gcn", k=1), 0, 2, np.random.default_rng(0)),
     "in_dim must be at least 1, got 0$"),
    (lambda: init_params(ModelSpec(arch="k_layer_gcn", k=1), 2, 0, np.random.default_rng(0)),
     "n_classes must be at least 1, got 0$"),
    (lambda: finite_difference_gradients(ModelSpec(arch="k_layer_gcn", k=1, hidden_width=2), p3(), np.ones((3, 2)),
                                         init_params(ModelSpec(arch="k_layer_gcn", k=1), 2, 2,
                                                     np.random.default_rng(0)), np.ones((3, 3))),
     r"upstream gradient must have shape \(3, 2\)$"),
    (lambda: max_relative_error(np.ones(3), np.ones(2)),
     r"got and want must have one shape, got \(3,\) and \(2,\)$"),
], ids=["uniform-negative-n", "uniform-float-n", "uniform-zero-d", "init-zero-in-dim", "init-zero-classes",
        "fd-upstream-shape", "max-error-shapes"])
def test_public_helpers_refuse_bad_sizes_and_shapes(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_bool_int_and_float_features_agree_and_an_upstream_gradient_must_be_real():
    spec = ModelSpec(arch="k_layer_gcn", k=1, hidden_width=2)
    params = init_params(spec, 2, 2, np.random.default_rng(0))
    x = np.array([[1, 0], [0, 1], [1, 1]])
    want = model_forward(spec, p3(), x.astype(float), params)
    for same in (x, x.astype(bool), x.astype(np.float32)):
        assert np.array_equal(model_forward(spec, p3(), same, params), want)
    with pytest.raises(InputError, match="upstream gradient must hold real numbers, got complex128 values$"):
        model_backward(spec, p3(), x, params, np.ones((3, 2), dtype=complex))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_detection():
    ahat = normalize(p3(), "none")
    p = LayerParams(W=np.array([[np.inf]]), b=np.zeros(1))
    with pytest.raises(NumericError):
        gcn_layer_forward(ahat, np.ones((3, 1)), p, act="identity")


# ---------------------------------------------------------------------------
# whole-model composition


def test_k1_architectures_coincide():
    rng = np.random.default_rng(4)
    g = random_digraph(rng, 6)
    x = rng.standard_normal((6, 3))
    params = [LayerParams(W=rng.standard_normal((3, 2)), b=rng.standard_normal(2))]
    outs = []
    for arch in ("k_layer_gcn", "one_layer_power_k", "hybrid_power_plus_linear"):
        spec = ModelSpec(arch=arch, k=1, norm="sym", activation="relu")
        outs.append(model_forward(spec, g, x, params))
    assert np.allclose(outs[0], outs[1])
    assert np.allclose(outs[0], outs[2])


def test_collapse_linear_identity_inputs():
    g = p3()
    x = np.eye(3)
    params = [LayerParams(W=np.eye(3), b=np.zeros(3)) for _ in range(2)]
    out = collapse_linear(g, x, params, 2)
    assert np.allclose(out, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_collapse_linear_requires_zero_bias():
    g = p3()
    params = [LayerParams(W=np.eye(3), b=np.ones(3))]
    with pytest.raises(InputError):
        collapse_linear(g, np.eye(3), params, 1)


@pytest.mark.parametrize("seed", range(10))
def test_linear_collapse_equivalence_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    k = int(rng.integers(1, 7))
    g = random_digraph(rng, n, p=0.3)
    x = rng.standard_normal((n, 3))
    spec = ModelSpec(arch="k_layer_gcn", k=k, hidden_width=4, activation="identity", norm="none")
    dims = [3] + [4] * (k - 1) + [2]
    params = [
        LayerParams(W=rng.standard_normal((dims[i], dims[i + 1])), b=np.zeros(dims[i + 1]))
        for i in range(k)
    ]
    got = model_forward(spec, g, x, params)
    want = collapse_linear(g, x, params, k)
    assert max_relative_error(got, want) < 1e-5


def test_one_layer_power_uses_powered_matrix():
    rng = np.random.default_rng(5)
    g = random_digraph(rng, 6)
    x = rng.standard_normal((6, 3))
    params = [LayerParams(W=rng.standard_normal((3, 2)), b=np.zeros(2))]
    spec = ModelSpec(arch="one_layer_power_k", k=3, norm="none", activation="identity")
    got = model_forward(spec, g, x, params)
    want = collapse_linear(g, x, [params[0], LayerParams(np.eye(2), np.zeros(2)),
                                  LayerParams(np.eye(2), np.zeros(2))], 3)
    # A^3 X W == A^3 X W I I
    assert max_relative_error(got, want) < 1e-10


def test_degree_emergence_first_layer():
    # uniform features, raw counts, identity activation, zero bias:
    # the first-layer rows are the out-neighbor counts times (1-vector . W)
    rng = np.random.default_rng(6)
    g = random_digraph(rng, 7)
    w = rng.standard_normal((1, 4))
    spec = ModelSpec(arch="k_layer_gcn", k=1, activation="identity", norm="none")
    out = model_forward(spec, g, uniform_features(7), [LayerParams(W=w, b=np.zeros(4))])
    outdeg = degree_features(g, "out")
    assert np.allclose(out, outdeg @ w, atol=1e-12)


def test_row_norm_uniform_features_rows_identical():
    rng = np.random.default_rng(7)
    # make sure every node has at least one out-edge
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 3), (2, 5)]
    g = from_edge_list(edges, 8)
    spec = ModelSpec(arch="k_layer_gcn", k=3, hidden_width=5, activation="relu", norm="row")
    params = init_params(spec, 1, 3, rng)
    ahat = build_aggregation(spec, g)
    h = uniform_features(8)
    from hopscope.models import _forward_pass

    logits, caches = _forward_pass(spec, ahat.to_scipy(), h, params, None)
    for c in caches:
        spread = np.abs(c["z"] - c["z"][0]).max()
        assert spread < 1e-12
    assert np.abs(logits - logits[0]).max() < 1e-12


def test_degree_as_feature_equivalence():
    # (k+1)-layer net on all-ones features == k-layer net whose input is
    # the aggregated-degree column, with the first two weights absorbed
    rng = np.random.default_rng(8)
    g = random_digraph(rng, 6)
    k = 2
    w1 = rng.standard_normal((1, 4))
    w2 = rng.standard_normal((4, 4))
    w3 = rng.standard_normal((4, 2))
    deep_spec = ModelSpec(arch="k_layer_gcn", k=k + 1, hidden_width=4, activation="identity", norm="none")
    deep_params = [LayerParams(w1, np.zeros(4)), LayerParams(w2, np.zeros(4)), LayerParams(w3, np.zeros(2))]
    deep = model_forward(deep_spec, g, uniform_features(6), deep_params)

    shallow_spec = ModelSpec(arch="k_layer_gcn", k=k, hidden_width=4, activation="identity", norm="none")
    degree_col = degree_features(g, "out")
    shallow_params = [LayerParams(w1 @ w2, np.zeros(4)), LayerParams(w3, np.zeros(2))]
    shallow = model_forward(shallow_spec, g, degree_col, shallow_params)
    assert np.allclose(deep, shallow, atol=1e-10)


def test_forward_requires_matching_param_count():
    spec = ModelSpec(arch="k_layer_gcn", k=2)
    with pytest.raises(InputError):
        model_forward(spec, p3(), np.ones((3, 1)), [LayerParams(np.ones((1, 2)), np.zeros(2))])


# ---------------------------------------------------------------------------
# gradients


def test_single_layer_closed_form_gradient():
    rng = np.random.default_rng(9)
    g = random_digraph(rng, 5)
    x = rng.standard_normal((5, 3))
    spec = ModelSpec(arch="k_layer_gcn", k=1, activation="identity", norm="sym")
    params = [LayerParams(W=rng.standard_normal((3, 2)), b=np.zeros(2))]
    upstream = rng.standard_normal((5, 2))
    grads, norms = model_backward(spec, g, x, params, upstream)
    ahat = build_aggregation(spec, g)
    want = (ahat.to_dense() @ x).T @ upstream
    assert np.allclose(grads[0].W, want, atol=1e-12)
    assert np.allclose(grads[0].b, upstream.sum(axis=0))
    assert len(norms) == 1


def test_zero_upstream_zero_grads():
    rng = np.random.default_rng(10)
    spec = ModelSpec(arch="graphsage", k=2, hidden_width=4)
    g, x, params = kink_free_instance(spec, rng)
    grads, norms = model_backward(spec, g, x, params, np.zeros((6, 3)))
    assert all(n == 0 for n in norms)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_gradcheck_every_architecture(arch):
    rng = np.random.default_rng(zlib.crc32(arch.encode()))  # same instance in every process
    spec = ModelSpec(arch=arch, k=3, hidden_width=4, activation="relu", norm="sym")
    g, x, params = kink_free_instance(spec, rng)
    upstream = rng.standard_normal((6, 3))
    assert gradient_check(spec, g, x, params, upstream) < 1e-4


@pytest.mark.parametrize("arch, power", [("k_layer_gcn", False), ("graphsage", False), ("k_layer_gcn", True),
                                         ("graphsage", True)],
                         ids=["k_layer_gcn", "graphsage", "k_layer_gcn-power", "graphsage-power"])
def test_hidden_layers_of_unequal_widths_run_and_check(arch, power):
    # the spec's hidden width does not bind hand-made records: widths 5 and 3 share no buffer;
    # a prebuilt operator of either type serves any spec, the passes taking a power operator's own @ and .T
    rng = np.random.default_rng(21)
    spec = ModelSpec(arch=arch, k=3, hidden_width=4, norm="sym")
    g = random_digraph(rng, 7)
    g = normalize_power(g, 2, "sym") if power else g
    dims = [(2, 5), (5, 3), (3, 2)]
    params = [LayerParams(W=rng.standard_normal(d), b=rng.standard_normal(d[1]),
                          W0=rng.standard_normal(d) if arch == "graphsage" else None) for d in dims]
    x = rng.standard_normal((7, 2))
    assert model_forward(spec, g, x, params).shape == (7, 2)
    assert gradient_check(spec, g, x, params, rng.standard_normal((7, 2))) < 1e-4


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_gradcheck_identity_activation(arch):
    rng = np.random.default_rng(zlib.crc32(arch.encode()) + 1)
    spec = ModelSpec(arch=arch, k=3, hidden_width=4, activation="identity", norm="sym")
    g, x, params = kink_free_instance(spec, rng)
    upstream = rng.standard_normal((6, 3))
    assert gradient_check(spec, g, x, params, upstream) < 1e-4


def test_dropout_masks_affect_forward_deterministically():
    rng = np.random.default_rng(11)
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=4, norm="sym")
    g, x, params = kink_free_instance(spec, rng)
    mask = [(rng.random((6, 4)) < 0.5) / 0.5, None]
    a = model_forward(spec, g, x, params, hidden_masks=mask)
    b = model_forward(spec, g, x, params, hidden_masks=mask)
    c = model_forward(spec, g, x, params)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_backward_stops_at_layer_zero_parameters():
    # no input gradient is formed, so a one-layer model never reads Âᵀ
    rng = np.random.default_rng(8)
    for arch in ("one_layer_power_k", "graphsage"):
        spec = ModelSpec(arch=arch, k=1 if arch == "graphsage" else 2, norm="sym")
        g = random_digraph(rng, 5)
        x = rng.standard_normal((5, 2))
        params = init_params(spec, 2, 3, rng)
        logits, caches = models._forward_pass(spec, build_aggregation(spec, g), x, params, None)
        upstream = rng.standard_normal(logits.shape)
        grads, norms = models._backward_pass(spec, None, params, caches, upstream)
        want, want_norms = model_backward(spec, g, x, params, upstream)
        assert norms == want_norms
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for a, b in zip(grads, want) for n in a.fields)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_through_the_transpose_view_is_bit_equal_to_a_transposed_copy(arch):
    rng = np.random.default_rng(13)
    spec = ModelSpec(arch=arch, k=3, hidden_width=5, norm="dir")
    g = random_digraph(rng, 30, p=0.2)
    x = rng.standard_normal((30, 4))
    params = init_params(spec, 4, 3, rng)
    ahat = build_aggregation(spec, g)
    logits, caches = models._forward_pass(spec, ahat, x, params, None)
    upstream = rng.standard_normal(logits.shape)
    # a power architecture's backward stops at layer 0: it never reads the transpose, so it gets the operator's own
    ahat_t = ahat.T if arch in models._POWER_ARCHES else ahat.csr.T.tocsr()
    want, want_norms = models._backward_pass(spec, ahat_t, params, caches, upstream)
    grads, norms = model_backward(spec, ahat, x, params, upstream)
    assert norms == want_norms
    assert all(getattr(a, n).tobytes() == getattr(b, n).tobytes() for a, b in zip(grads, want) for n in a.fields)


def test_finite_differences_leave_caller_arrays_alone():
    rng = np.random.default_rng(9)
    spec = ModelSpec(arch="graphsage", k=2, hidden_width=3, activation="identity", norm="sym")
    g = random_digraph(rng, 5)
    x = rng.standard_normal((5, 2))
    params = init_params(spec, 2, 3, rng)
    before = [getattr(p, n).copy() for p in params for n in p.fields]
    numeric = finite_difference_gradients(spec, g, x, params, rng.standard_normal((5, 3)))
    after = [getattr(p, n) for p in params for n in p.fields]
    assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(before, after))
    for q, p in zip(numeric, params):
        assert q.fields == p.fields
        for n in p.fields:
            assert getattr(q, n).shape == getattr(p, n).shape
            assert not any(np.shares_memory(getattr(q, n), arr) for arr in after)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_into_a_reused_buffer_is_bit_equal_to_the_allocating_call(arch):
    rng = np.random.default_rng(zlib.crc32(arch.encode()))
    spec = ModelSpec(arch=arch, k=3, hidden_width=5, norm="dir")
    g = random_digraph(rng, 12, p=0.3)
    x = rng.standard_normal((12, 4))
    params = init_params(spec, 4, 3, rng)
    ahat = build_aggregation(spec, g)
    masks = [(rng.random((12, 5)) < 0.6) / 0.6 for _ in params[:-1]] + [None]
    _, caches = models._forward_pass(spec, ahat, x, params, masks)
    flat, buffer = caches.gradient  # the workspace's gradient vector, which every backward on it reuses
    flat.fill(np.nan)
    for _ in range(2):  # a second upstream must overwrite every entry the first one wrote
        upstream = rng.standard_normal((12, 3))
        want, want_norms = model_backward(spec, ahat, x, params, upstream, hidden_masks=masks)
        got, norms = models._backward_pass(spec, ahat.T, params, caches, upstream)
        assert got is buffer and norms == want_norms
        assert flat.tobytes() == models.flat_gradients(want).tobytes()
