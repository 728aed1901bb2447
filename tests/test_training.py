import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hopscope import (
    ARCHITECTURES,
    InputError,
    Metrics,
    ModelSpec,
    SparseCountMatrix,
    TrainConfig,
    from_edge_list,
    majority_baseline,
    make_splits,
    mat_power_count,
    run_sweep,
    synthesize_dataset,
    train_model,
)
from hopscope import datasets, hops, models, training
from hopscope.errors import CountOverflowError, NumericError
from hopscope.models import build_aggregation, init_params, model_backward, model_forward
from hopscope.normalization import PowerAggregation
from hopscope.training import SplitSpec, train_splits


@pytest.fixture(scope="module")
def tiny_structure_ds():
    return synthesize_dataset("structure_only", n=220, seed=4)


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_three_balanced_classes():
    labels = np.repeat([0, 1, 2], 100)
    splits = make_splits(labels, per_class_train=20, per_class_val=30, n_splits=10, seed=1)
    assert len(splits) == 10
    for s in splits:
        assert len(s.train) == 60
        assert len(s.val) == 90
        assert len(s.test) == 150
        assert np.all(np.bincount(labels[s.train]) == 20)
        assert np.all(np.bincount(labels[s.val]) == 30)


def test_splits_deterministic():
    labels = np.repeat([0, 1], 80)
    a = make_splits(labels, n_splits=3, seed=7)
    b = make_splits(labels, n_splits=3, seed=7)
    for s, t in zip(a, b):
        assert np.array_equal(s.train, t.train)
        assert np.array_equal(s.val, t.val)
        assert np.array_equal(s.test, t.test)


def test_split_class_too_small():
    labels = np.array([0] * 40 + [1] * 100)
    with pytest.raises(InputError):
        make_splits(labels, per_class_train=20, per_class_val=30)


@pytest.mark.parametrize("empty, what", [("train", "training"), ("val", "validation"), ("test", "test")])
def test_split_without_training_nodes_is_an_input_error(empty, what):
    sets = {"train": [0, 1], "val": [2, 3], "test": [4, 5], empty: []}
    with pytest.raises(InputError, match=f"at least one {what} node"):
        SplitSpec(**sets, seed=0)


@pytest.mark.parametrize("labels, message", [
    (np.repeat([-1, 0, 1], 60), "class ids must be non-negative"),
    (np.repeat([0.5, 1.5, 2.5], 60), "one integer class per node"),
], ids=["negative_class", "fractional_labels"])
@pytest.mark.parametrize("call", ["make_splits", "majority_baseline", "DatasetBundle", "dataset_stats"])
def test_splits_and_baseline_take_the_trainer_label_check(call, labels, message):
    split = make_splits(np.repeat([0, 1, 2], 60), n_splits=1)[0]
    graph = from_edge_list([], len(labels))
    calls = {"make_splits": lambda: make_splits(labels), "majority_baseline": lambda: majority_baseline(labels, split),
             "DatasetBundle": lambda: datasets.DatasetBundle(graph, None, labels, "toy", 3, None),
             "dataset_stats": lambda: datasets.dataset_stats(graph, labels)}
    with pytest.raises(InputError, match=message):
        calls[call]()


@pytest.mark.parametrize("train, message", [
    ([0.5, 3.9], "training nodes must hold integers, got 0.5$"),
    (["1", "x"], "training nodes must hold integers, got <U1 values$"),
    ([[0, 3]], r"training nodes must form a 1-D array, got shape \(1, 2\)$"),
    (np.array([0, 2**63], dtype=np.uint64), "training nodes must hold integers, got 9223372036854775808$"),
], ids=["float", "string", "2-D", "uint64"])
def test_split_index_sets_must_be_whole_numbers(train, message):
    with pytest.raises(InputError, match=message):
        SplitSpec(train=train, val=[1], test=[2], seed=0)


def test_split_and_bundle_leave_the_callers_arrays_writeable():
    train, val, test, labels = (np.array(a) for a in ([0, 1], [2], [3], [1, 0, 1, 0]))
    split = SplitSpec(train=train, val=val, test=test, seed=0)
    bundle = datasets.DatasetBundle(from_edge_list([], 4), None, labels, "toy", 2, None)
    for arr in (train, val, test, labels):
        arr[0] = 7
    assert (split.train[0], split.val[0], split.test[0], bundle.labels[0]) == (0, 2, 3, 1)
    assert not any(arr.flags.writeable for arr in (split.train, split.val, split.test, bundle.labels))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lr=0.0)
    with pytest.raises(InputError):
        TrainConfig(max_epochs=50, early_stop_patience=50)
    with pytest.raises(InputError):
        TrainConfig(dropout=1.0)
    with pytest.raises(InputError):
        TrainConfig(l2=-1e-4)
    with pytest.raises(InputError):
        TrainConfig(lr_sched_patience=0)
    with pytest.raises(InputError, match="max_epochs must be at least 1, got 0$"):
        TrainConfig(max_epochs=0, early_stop_patience=-1)
    with pytest.raises(InputError, match="early_stop_patience must be at least 0, got -1$"):
        TrainConfig(early_stop_patience=-1)
    with pytest.raises(InputError, match="lr must be a real number, got '0.1'$"):
        TrainConfig(lr="0.1")
    with pytest.raises(InputError, match="dropout must be a real number, got None$"):
        TrainConfig(dropout=None)
    for name in ("max_epochs", "early_stop_patience", "lr_sched_patience", "seed"):
        with pytest.raises(InputError, match=f"{name} must be an integer, got 5.5$"):
            TrainConfig(**{name: 5.5})
    assert TrainConfig(max_epochs=np.int64(301), seed=np.uint8(3)).max_epochs == 301
    full = TrainConfig.paper_protocol()
    assert (full.max_epochs, full.early_stop_patience, full.lr_sched_patience) == (1500, 410, 80)


def test_negative_seeds_are_input_errors():
    with pytest.raises(InputError, match="seed must be at least 0, got -1$"):
        TrainConfig(seed=-1)
    with pytest.raises(InputError, match="seed must be at least 0, got -2$"):
        make_splits(np.repeat([0, 1], 60), seed=-2)
    with pytest.raises(InputError, match="seed must be at least 0, got -3$"):
        synthesize_dataset("structure_only", 60, seed=-3)


@pytest.mark.parametrize("field, value", [("lr", np.nan), ("lr", np.inf), ("l2", np.nan), ("l2", np.inf)])
def test_config_rejects_non_finite_rates(field, value):
    with pytest.raises(InputError, match="finite"):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# single runs


def separable_mlp_instance():
    """Two well-separated Gaussian blobs, empty graph: the SAGE layer
    degenerates to an MLP and the task is linearly separable."""
    rng = np.random.default_rng(0)
    n = 160
    labels = np.repeat([0, 1], n // 2)
    x = rng.standard_normal((n, 2)) * 0.2 + np.where(labels[:, None] == 0, -2.0, 2.0)
    graph = from_edge_list([], n)
    return graph, x, labels


def test_separable_instance_reaches_perfect_accuracy():
    graph, x, labels = separable_mlp_instance()
    split = make_splits(labels, n_splits=1, seed=3)[0]
    spec = ModelSpec(arch="graphsage", k=2, hidden_width=8, activation="relu", norm="none")
    cfg = TrainConfig(lr=0.05, max_epochs=200, early_stop_patience=80, lr_sched_patience=40, seed=5)
    metrics = train_model(spec, graph, x, labels, split, cfg)
    assert metrics.accuracies[0] == 1.0


def test_training_is_bit_deterministic(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=8, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, max_epochs=40, early_stop_patience=30, lr_sched_patience=20, seed=9)
    a = train_model(spec, graph, x, labels, split, cfg)
    b = train_model(spec, graph, x, labels, split, cfg)
    assert a.accuracies == b.accuracies
    assert a.epochs_run == b.epochs_run
    assert a.grad_norm_traces == b.grad_norm_traces


def test_early_stopping_bound(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="k_layer_gcn", k=1, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.01, max_epochs=200, early_stop_patience=15, lr_sched_patience=10, seed=2)
    m = train_model(spec, graph, x, labels, split, cfg)
    assert m.epochs_run[0] <= m.best_epochs[0] + cfg.early_stop_patience + 1
    assert len(m.grad_norm_traces[0]) == m.epochs_run[0]


def test_grad_norm_trace_has_layer_entries(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="k_layer_gcn", k=3, hidden_width=6, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, max_epochs=20, early_stop_patience=15, lr_sched_patience=10, seed=2)
    m = train_model(spec, graph, x, labels, split, cfg)
    assert all(len(per_epoch) == 3 for per_epoch in m.grad_norm_traces[0])


def test_row_norm_uniform_features_cannot_beat_majority(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    splits = make_splits(labels, n_splits=3, seed=1)
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=8, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, max_epochs=120, early_stop_patience=60, lr_sched_patience=30, seed=0)
    for split in splits:
        m = train_model(spec, graph, x, labels, split, cfg)
        assert m.accuracies[0] <= m.majority_baselines[0] + 0.02


def test_dropout_runs_and_stays_deterministic(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=8, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, dropout=0.5, max_epochs=30, early_stop_patience=20, lr_sched_patience=10, seed=4)
    a = train_model(spec, graph, x, labels, split, cfg)
    b = train_model(spec, graph, x, labels, split, cfg)
    assert a.accuracies == b.accuracies


def test_graphsage_l2_dropout_is_bit_deterministic(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="graphsage", k=3, hidden_width=8, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, l2=1e-3, dropout=0.3, max_epochs=30, early_stop_patience=20,
                      lr_sched_patience=10, seed=4)
    a = train_model(spec, graph, x, labels, split, cfg)
    b = train_model(spec, graph, x, labels, split, cfg)
    assert a == b  # every field, gradient-norm traces included
    assert len(a.grad_norm_traces[0]) == a.epochs_run[0]
    assert all(len(per_epoch) == 3 for per_epoch in a.grad_norm_traces[0])


def test_train_splits_seed_rule_and_failures(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    splits = make_splits(labels, n_splits=2, seed=3)
    spec = ModelSpec(arch="k_layer_gcn", k=1, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, max_epochs=10, early_stop_patience=5, lr_sched_patience=5, seed=3)
    runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
    assert failed == []
    seed1 = int(np.random.SeedSequence(entropy=3, spawn_key=(1, 17)).generate_state(1)[0])
    assert runs[1] == train_model(spec, graph, x, labels, splits[1], TrainConfig(
        lr=0.05, max_epochs=10, early_stop_patience=5, lr_sched_patience=5, seed=seed1))

    runs, failed = train_splits(spec, graph, np.full_like(x, np.nan), labels, splits, cfg)
    assert runs == []
    assert [(si, type(exc)) for si, exc in failed] == [(0, NumericError), (1, NumericError)]


def test_diverging_run_names_its_epoch_and_fails_as_a_split():
    # lr=1e120 overflows the update's matmuls; pytest turns numpy's RuntimeWarning into an error
    graph, x, labels = synthesize_dataset("structure_only", n=400, seed=0)
    spec = ModelSpec(arch="k_layer_gcn", k=3, activation="identity", norm="none", propagation="bidirectional")
    runs, failed = train_splits(spec, graph, x, labels, make_splits(labels, n_splits=2, seed=0), TrainConfig(lr=1e120))
    assert runs == []
    assert [(si, type(exc), exc.epoch) for si, exc in failed] == [(0, NumericError, 1), (1, NumericError, 1)]
    assert "non-finite values in layer 2 output" in str(failed[0][1])


def test_contract_errors_are_not_split_failures(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    splits = make_splits(labels, n_splits=2, seed=3)
    spec = ModelSpec(arch="k_layer_gcn", k=1, norm="row")
    cfg = TrainConfig(lr=0.05, max_epochs=3, early_stop_patience=2, seed=3)
    with pytest.raises(InputError):
        train_splits(spec, graph, x[:-1], labels, splits, cfg)
    with pytest.raises(InputError):
        run_sweep([spec], [1], (graph, x[:-1], labels), cfg, n_splits=2)


def reference_train(spec, graph, x, labels, split, cfg):
    """The straightforward epoch loop on the public kernels: per epoch a
    training forward, a backward that recomputes it, and an eval forward."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    ahat = build_aggregation(spec, graph)
    params = init_params(spec, x.shape[1], int(labels.max()) + 1, rng)
    m_state = [{n: np.zeros_like(getattr(p, n)) for n in p.fields} for p in params]
    v_state = [{n: np.zeros_like(getattr(p, n)) for n in p.fields} for p in params]
    lr, traces, y = cfg.lr, [], labels[split.train]
    best_val, best_epoch, best_params, no_improve, sched = -1.0, 0, params, 0, 0
    for epoch in range(1, cfg.max_epochs + 1):
        masks = None
        if cfg.dropout > 0.0 and len(params) > 1:
            keep = 1.0 - cfg.dropout
            masks = [(rng.random((x.shape[0], p.W.shape[1])) < keep).astype(np.float64) / keep
                     for p in params[:-1]] + [None]
        logits = model_forward(spec, ahat, x, params, hidden_masks=masks)
        probs = training._softmax(logits[split.train])
        probs[np.arange(len(y)), y] -= 1.0
        upstream = np.zeros_like(logits)
        upstream[split.train] = probs / len(y)
        grads, norms = model_backward(spec, ahat, x, params, upstream, hidden_masks=masks)
        traces.append(tuple(norms))
        new_params = []
        for li, (p, g) in enumerate(zip(params, grads)):
            upd = {}
            for n in p.fields:
                garr = getattr(g, n)
                if cfg.l2 > 0 and n != "b":
                    garr = garr + cfg.l2 * getattr(p, n)
                m_state[li][n] = 0.9 * m_state[li][n] + (1 - 0.9) * garr
                v_state[li][n] = 0.999 * v_state[li][n] + (1 - 0.999) * garr * garr
                m_hat = m_state[li][n] / (1 - 0.9**epoch)
                v_hat = v_state[li][n] / (1 - 0.999**epoch)
                upd[n] = getattr(p, n) - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            new_params.append(replace(p, **upd))
        params = new_params
        val_acc = training._accuracy(model_forward(spec, ahat, x, params), labels, split.val)
        if val_acc > best_val:
            best_val, best_epoch, best_params, no_improve, sched = val_acc, epoch, params, 0, 0
        else:
            no_improve, sched = no_improve + 1, sched + 1
            if sched >= cfg.lr_sched_patience:
                lr, sched = lr * 0.5, 0
            if no_improve >= cfg.early_stop_patience:
                break
    test_acc = training._accuracy(model_forward(spec, ahat, x, best_params), labels, split.test)
    return Metrics(accuracies=(test_acc,), majority_baselines=(majority_baseline(labels, split),),
                   epochs_run=(epoch,), best_epochs=(best_epoch,), grad_norm_traces=(tuple(traces),))


@pytest.mark.parametrize("arch, l2, dropout", [
    ("k_layer_gcn", 0.0, 0.0),
    ("graphsage", 5e-4, 0.3),
    ("hybrid_power_plus_linear", 0.0, 0.0),
    ("hybrid_power_plus_linear", 5e-4, 0.3),
    ("one_layer_power_k", 1e-3, 0.0),
])
def test_train_model_matches_reference_loop(tiny_structure_ds, arch, l2, dropout):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=2)[0]
    spec = ModelSpec(arch=arch, k=3, hidden_width=6, norm="sym", propagation="bidirectional")
    # patience short enough that the scheduler halves lr and early stopping may fire
    cfg = TrainConfig(lr=0.05, l2=l2, dropout=dropout, max_epochs=25, early_stop_patience=12,
                      lr_sched_patience=4, seed=6)
    got = train_model(spec, graph, x, labels, split, cfg)
    want = reference_train(spec, graph, x, labels, split, cfg)
    assert got == want  # every field, gradient-norm traces included


def _count_calls(monkeypatch, fn, *modules):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("dropout, forwards", [(0.0, lambda e: e + 2), (0.4, lambda e: 2 * e + 1)])
def test_forward_passes_per_run(tiny_structure_ds, monkeypatch, dropout, forwards):
    graph, x, labels = tiny_structure_ds
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=6, norm="row", propagation="reverse")
    cfg = TrainConfig(lr=0.05, dropout=dropout, max_epochs=7, early_stop_patience=6, seed=1)
    calls = _count_calls(monkeypatch, models._forward_pass, models, training)
    m = train_model(spec, graph, x, labels, split, cfg)
    assert len(calls) == forwards(m.epochs_run[0])


def one_train_model_per_split(spec, graph, x, labels, splits, cfg):
    """The oracle of lockstep training: one lone train_model run per split, seeded by spawn_key (si, 17)."""
    runs, failed = [], []
    for si, split in enumerate(splits):
        seed = int(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(si, 17)).generate_state(1)[0])
        try:
            runs.append(train_model(spec, graph, x, labels, split, replace(cfg, seed=seed)))
        except NumericError as exc:
            failed.append((si, exc))
    return runs, failed


def outcomes(result):
    """Every field of every finished run, and each failure's split, type, message and epoch."""
    runs, failed = result
    return runs, [(si, type(exc), str(exc), exc.epoch) for si, exc in failed]


@pytest.fixture(scope="module")
def hybrid_ds():
    return synthesize_dataset("hybrid", n=200, seed=3, feature_signal=0.6)  # 12 features


def unequal_splits(labels):
    """Hand-built splits of 8, 13 and 21 training nodes, with validation and test sets of unequal sizes too."""
    idx = np.random.default_rng(5).permutation(len(labels))
    return [SplitSpec(train=idx[a:a + t], val=idx[a + t:a + t + v], test=idx[a + t + v:a + 60], seed=0)
            for a, t, v in ((0, 8, 30), (60, 13, 17), (120, 21, 24))]


LOCKSTEP_CASES = {  # model and config overrides
    "dropout_l2": (dict(), dict(dropout=0.3, l2=5e-4)),
    "early_stop": (dict(), dict(early_stop_patience=5, lr_sched_patience=3)),
    "unequal_splits": (dict(), dict(dropout=0.2)),
    "one_column": (dict(hidden_width=1), dict(dropout=0.2, l2=1e-3)),  # every hidden layer is one column wide
    # one-column (uniform) input features feed hidden layers two and three columns wide
    "uniform_width_2": (dict(hidden_width=2), dict(dropout=0.2)),
    "uniform_width_3": (dict(hidden_width=3), dict()),
}


@pytest.fixture(scope="module")
def uniform_ds():
    return synthesize_dataset("structure_only", n=120, seed=3)  # one all-ones feature column


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_lockstep_splits_equal_one_train_model_per_split(hybrid_ds, uniform_ds, arch, case):
    graph, x, labels = uniform_ds if case.startswith("uniform") else hybrid_ds
    model, config = LOCKSTEP_CASES[case]
    spec = ModelSpec(**{**dict(arch=arch, k=3, hidden_width=6, norm="sym", propagation="forward"), **model})
    cfg = TrainConfig(**{**dict(lr=0.05, max_epochs=24, early_stop_patience=8, lr_sched_patience=4, seed=2), **config})
    splits = unequal_splits(labels) if case == "unequal_splits" else make_splits(
        labels, per_class_train=8, per_class_val=10, n_splits=3, seed=1)
    got = train_splits(spec, graph, x, labels, splits, cfg)
    assert outcomes(got) == outcomes(one_train_model_per_split(spec, graph, x, labels, splits, cfg))
    runs, failed = got
    assert failed == [] and len(runs) == 3
    if case == "early_stop":  # early stopping fires, and at different epochs in different splits
        epochs = [m.epochs_run[0] for m in runs]
        assert min(epochs) < cfg.max_epochs and len(set(epochs)) > 1


DIVERGING_CASES = {  # (config overrides, epochs run by the finished splits, failures)
    # lr=1e51: two splits' forwards overflow at epoch 1, a third split's loss diverges at
    # epoch 2, and the last one stops early at epoch 3
    "no_dropout": (dict(lr=1e51, seed=0), [(3,)],
                   [(1, "non-finite values in layer 5 output", 1), (2, "training loss diverged", 2),
                    (3, "non-finite values in layer 5 output", 1)]),
    # masked training forwards: at epoch 2 one split's forward overflows and another's loss diverges
    "dropout": (dict(lr=5e50, dropout=0.3, seed=2), [(3,), (3,)],
                [(1, "non-finite values in layer 5 output", 2), (3, "training loss diverged", 2)]),
}


@pytest.mark.parametrize("case", list(DIVERGING_CASES))
def test_a_diverging_split_fails_alone_and_the_rest_train_on(hybrid_ds, case):
    # a 6-layer linear stack with a huge learning rate
    graph, x, labels = hybrid_ds
    config, epochs, failures = DIVERGING_CASES[case]
    spec = ModelSpec(arch="k_layer_gcn", k=6, hidden_width=4, activation="identity", norm="row", propagation="forward")
    cfg = TrainConfig(max_epochs=12, early_stop_patience=2, lr_sched_patience=5, **config)
    splits = make_splits(labels, per_class_train=5, per_class_val=10, n_splits=4, seed=0)
    got = train_splits(spec, graph, x, labels, splits, cfg)
    assert outcomes(got) == outcomes(one_train_model_per_split(spec, graph, x, labels, splits, cfg))
    runs, failed = outcomes(got)
    assert [m.epochs_run for m in runs] == epochs
    assert failed == [(si, NumericError, message, epoch) for si, message, epoch in failures]


@pytest.mark.parametrize("case, message", [
    ("short_labels", r"labels must be one integer class per node, shape \(120,\), got int64 \(100,\)$"),
    ("column_labels", r"labels must be one integer class per node, shape \(120,\), got int64 \(120, 1\)$"),
    ("float_labels", r"labels must be one integer class per node, shape \(120,\), got float64 \(120,\)$"),
    ("negative_class", "class ids must be non-negative int64 values, got -1$"),
    ("past_the_graph_index", r"names a node outside 0\.\.119$"),
    ("negative_index", r"names a node outside 0\.\.119$"),
])
def test_training_rejects_labels_and_splits_that_do_not_fit_the_graph(uniform_ds, case, message):
    graph, x, labels = uniform_ds
    splits = make_splits(labels, per_class_train=8, per_class_val=10, n_splits=2, seed=1)
    labels = {"short_labels": labels[:100], "column_labels": labels[:, None], "float_labels": labels.astype(float),
              "negative_class": np.where(labels == 3, -1, labels)}.get(case, labels)
    if case.endswith("index"):
        s, node = splits[1], 120 if case == "past_the_graph_index" else -1
        splits[1] = SplitSpec(train=s.train, val=s.val, test=np.append(s.test, node), seed=s.seed)
    spec = ModelSpec(arch="k_layer_gcn", k=2, hidden_width=4)
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, seed=1)
    with pytest.raises(InputError, match=("split 1 " if case.endswith("index") else "") + message):
        train_splits(spec, graph, x, labels, splits, cfg)
    with pytest.raises(InputError, match=message):
        train_model(spec, graph, x, labels, splits[1], cfg)


def test_train_splits_builds_one_aggregation(tiny_structure_ds, monkeypatch):
    graph, x, labels = tiny_structure_ds
    splits = make_splits(labels, n_splits=3, seed=3)
    spec = ModelSpec(arch="one_layer_power_k", k=2, norm="sym", propagation="bidirectional")
    cfg = TrainConfig(lr=0.05, max_epochs=3, early_stop_patience=2, seed=3)
    calls = _count_calls(monkeypatch, models.build_aggregation, models)
    runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
    assert (len(runs), failed, len(calls)) == (3, [], 1)


def test_train_splits_failed_aggregation_fails_every_split(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    splits = make_splits(labels, n_splits=3, seed=3)
    # 400-step walk counts on the bidirectional graph leave float64 range (their degree sums from k = 212)
    spec = ModelSpec(arch="one_layer_power_k", k=400, norm="none", propagation="bidirectional")
    cfg = TrainConfig(lr=0.05, max_epochs=3, early_stop_patience=2, seed=3)
    runs, failed = train_splits(spec, graph, x, labels, splits, cfg)
    assert runs == []
    assert [si for si, _ in failed] == [0, 1, 2]
    assert all(isinstance(exc, NumericError) and str(exc).startswith("A^400 leaves float64 range")
               for _, exc in failed)


def test_sweep_fails_the_cells_of_a_template_whose_reach_overflows():
    # every stored count 2**62: symmetrizing adds two of them, which leaves int64
    graph, x, labels = synthesize_dataset("structure_only", n=60, seed=1)
    heavy = SparseCountMatrix(graph.n_rows, graph.n_cols, graph.row_offsets, graph.col_indices,
                              np.full(graph.nnz, 2**62))
    cfg = TrainConfig(lr=0.05, max_epochs=3, early_stop_patience=2, seed=3)
    split_kw = dict(per_class_train=2, per_class_val=2)
    templates = [ModelSpec(arch=a, k=1, hidden_width=4, propagation=p)
                 for a, p in (("k_layer_gcn", "bidirectional"), ("one_layer_power_k", "bidirectional"),
                              ("k_layer_gcn", "forward"))]
    runs, failed = train_splits(templates[0], heavy, x, labels, make_splits(labels, n_splits=2, seed=3, **split_kw),
                                cfg)
    assert runs == [] and [(si, type(exc)) for si, exc in failed] == [(0, CountOverflowError), (1, CountOverflowError)]
    rows = run_sweep(templates, [1, 3], (heavy, x, labels), cfg, n_splits=2, **split_kw)
    assert [(r.arch, r.propagation, r.k, r.failures) for r in rows[:4]] == [
        ("k_layer_gcn", "bidirectional", 1, 2), ("k_layer_gcn", "bidirectional", 3, 2),
        ("one_layer_power_k", "bidirectional", 1, 2), ("one_layer_power_k", "bidirectional", 3, 2)]
    assert all(np.isnan(r.acc_mean) and np.isnan(r.density) for r in rows[:4])
    # the forward template's reach is the graph itself: it trains
    assert [(r.k, r.failures) for r in rows[4:]] == [(1, 0), (3, 0)] and all(r.density > 0 for r in rows[4:])


def test_power_cells_never_materialize_their_aggregation(monkeypatch):
    # building Â and training on it stay below the bytes of one n×n float64 array, also in the
    # cells of a sweep; a sweep's boolean density ladder is not part of Â and is not measured
    graph, x, labels = synthesize_dataset("structure_only", n=400, seed=1)
    monkeypatch.setattr(PowerAggregation, "to_scipy", lambda self: pytest.fail("a power cell materialized Â"))
    monkeypatch.setattr(hops, "_count_matmul", lambda x, y: pytest.fail("a power cell built an exact power"))
    peaks = []

    def peak_of(fn):
        def measured(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return measured

    monkeypatch.setattr(training, "train_splits", peak_of(training.train_splits))
    templates = [ModelSpec(arch=a, k=1, hidden_width=8, propagation="bidirectional")
                 for a in ("one_layer_power_k", "hybrid_power_plus_linear")]
    cfg = TrainConfig(lr=0.05, max_epochs=3, early_stop_patience=2, seed=1)
    splits = make_splits(labels, n_splits=2, seed=1)
    tracemalloc.start()
    try:
        rows = run_sweep(templates, [2, 10], (graph, x, labels), cfg, n_splits=2)
        for t in templates:
            runs, failed = training.train_splits(replace(t, k=10), graph, x, labels, splits, cfg)
            assert (len(runs), failed) == (2, [])
    finally:
        tracemalloc.stop()
    assert [r.failures for r in rows] == [0] * 4
    assert len(peaks) == 4 + 2 and max(peaks) < 8 * 400 * 400


@pytest.mark.parametrize("norm", ["row", "sym", "dir"])
def test_power_sweep_trains_past_int64_walk_counts(norm):
    # bidirectional structure_only (n=400): exact walk counts leave int64 at k = 13, while depth runs 50 layers
    graph, x, labels = synthesize_dataset("structure_only", n=400, seed=5)
    templates = [ModelSpec(arch=a, k=1, hidden_width=8, norm=norm, propagation="bidirectional")
                 for a in ("one_layer_power_k", "hybrid_power_plus_linear")]
    with pytest.raises(CountOverflowError):
        mat_power_count(models._reach_adjacency(templates[0], graph), 13)
    cfg = TrainConfig(lr=0.05, max_epochs=4, early_stop_patience=3, lr_sched_patience=2, seed=5)
    rows = run_sweep(templates, [13, 50], (graph, x, labels), cfg, n_splits=2)
    assert [(r.k, r.failures) for r in rows] == [(13, 0), (50, 0)] * 2
    assert all(0.0 <= r.acc_mean <= 1.0 and np.isfinite(r.acc_std) and 0.0 < r.density <= 1.0 for r in rows)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_merge_recomputable():
    m1 = Metrics(accuracies=(0.5,), majority_baselines=(0.3,), epochs_run=(10,), best_epochs=(5,))
    m2 = Metrics(accuracies=(0.7,), majority_baselines=(0.3,), epochs_run=(12,), best_epochs=(9,))
    merged = Metrics.merge([m1, m2])
    assert merged.mean == pytest.approx(0.6)
    assert merged.std == pytest.approx(np.std([0.5, 0.7]))


def test_majority_baseline_ties_take_lowest_class():
    labels = np.array([0] * 50 + [1] * 50 + [2] * 60)
    split = make_splits(labels, per_class_train=10, per_class_val=10, n_splits=1, seed=0)[0]
    # balanced train -> tie -> class 0; baseline is class 0's test share
    want = float(np.mean(labels[split.test] == 0))
    assert majority_baseline(labels, split) == want


# ---------------------------------------------------------------------------
# synthetic datasets


@pytest.mark.parametrize("kind", datasets.SYNTH_KINDS)
def test_synthesize_deterministic(kind):
    assert training.synthesize_dataset is datasets.synthesize_dataset
    a = synthesize_dataset(kind, n=250, seed=11)
    b = synthesize_dataset(kind, n=250, seed=11)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


@pytest.mark.parametrize("kind", ["structure_only", "hybrid"])
@pytest.mark.parametrize("knob, value, message", [
    ("noise", -0.1, "noise must be in"), ("noise", 1.5, "noise must be in"), ("noise", np.nan, "noise must be in"),
    ("feature_signal", np.nan, "feature_signal must be finite"),
    ("feature_signal", np.inf, "feature_signal must be finite"),
    ("feature_signal", -np.inf, "feature_signal must be finite"),
    ("noise", "0.1", "noise must be a real number, got '0.1'$"),
    ("feature_signal", None, "feature_signal must be a real number, got None$"),
])
def test_synthesize_rejects_bad_noise_and_feature_signal(kind, knob, value, message):
    with pytest.raises(InputError, match=message):
        synthesize_dataset(kind, n=60, seed=0, **{knob: value})


def test_synthesize_rejects_small_n():
    with pytest.raises(InputError):
        synthesize_dataset("structure_only", n=20, seed=0)
    with pytest.raises(InputError):
        synthesize_dataset("unknown_kind", n=100, seed=0)


def test_structure_only_balanced_classes():
    _, x, labels = synthesize_dataset("structure_only", n=400, seed=2)
    assert np.array_equal(x, np.ones((400, 1)))
    counts = np.bincount(labels)
    assert counts.min() >= 90 and counts.max() <= 110


def test_structure_only_label_noise():
    _, _, clean = synthesize_dataset("structure_only", n=300, seed=6, noise=0.0)
    _, _, noisy = synthesize_dataset("structure_only", n=300, seed=6, noise=0.3)
    assert 0.05 < float(np.mean(clean != noisy)) < 0.5


def test_deep_dataset_every_node_keeps_walks():
    from hopscope import mat_power_support

    g, _, labels = synthesize_dataset("sparse_digraph_deep", n=200, seed=1)
    pat = mat_power_support(g, 50)
    assert np.diff(pat.csr.indptr).min() > 0
    assert np.array_equal(np.bincount(labels), [50, 50, 50, 50])


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_k1_architectures_coincide(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    cfg = TrainConfig(lr=0.05, max_epochs=30, early_stop_patience=20, lr_sched_patience=10, seed=3)
    arches = [
        ModelSpec(arch=a, k=1, hidden_width=8, norm="row", propagation="reverse")
        for a in ("k_layer_gcn", "one_layer_power_k", "hybrid_power_plus_linear")
    ]
    rows = run_sweep(arches, [1], (graph, x, labels), cfg, n_splits=2)
    assert len(rows) == 3
    assert rows[0].acc_mean == rows[1].acc_mean == rows[2].acc_mean
    assert rows[0].density == rows[1].density == rows[2].density


def test_sweep_density_nondecreasing_with_selfloops(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    cfg = TrainConfig(lr=0.05, max_epochs=25, early_stop_patience=20, lr_sched_patience=10, seed=3)
    arches = [ModelSpec(arch="k_layer_gcn_selfloop", k=1, hidden_width=8, norm="row", propagation="reverse")]
    rows = run_sweep(arches, [1, 2, 3], (graph, x, labels), cfg, n_splits=1)
    densities = [r.density for r in rows]
    assert densities == sorted(densities)


def test_sweep_rejects_bad_k_range(tiny_structure_ds):
    graph, x, labels = tiny_structure_ds
    cfg = TrainConfig(seed=0)
    with pytest.raises(InputError):
        run_sweep([ModelSpec(arch="k_layer_gcn", k=1)], [0, 1], (graph, x, labels), cfg)


# ---------------------------------------------------------------------------
# headline behaviors of the synthetic tasks


def test_structure_only_one_aggregation_plus_hidden_layer_solves_it():
    # an aggregation on the squared reversed adjacency plus one linear
    # layer sees the label-defining in-degree mass directly
    graph, x, labels = synthesize_dataset("structure_only", n=400, seed=1)
    splits = make_splits(labels, n_splits=3, seed=0)
    spec = ModelSpec(arch="hybrid_power_plus_linear", k=2, hidden_width=32,
                     activation="relu", norm="none", propagation="reverse")
    cfg = TrainConfig(lr=0.05, max_epochs=500, early_stop_patience=250, lr_sched_patience=100, seed=0)
    accs = []
    for si, split in enumerate(splits):
        seed = int(np.random.SeedSequence(entropy=0, spawn_key=(si, 17)).generate_state(1)[0])
        from dataclasses import replace

        m = train_model(spec, graph, x, labels, split, replace(cfg, seed=seed))
        accs.append(m.accuracies[0])
    assert np.mean(accs) >= 0.95


def test_hybrid_without_feature_signal_mlp_is_chance():
    # zero the aggregation matrix: the SAGE layer degenerates to an MLP,
    # and featureless features carry nothing about the planted classes
    graph, x, labels = synthesize_dataset("hybrid", n=400, seed=7, feature_signal=0.0)
    empty = from_edge_list([], graph.n_rows)
    split = make_splits(labels, n_splits=1, seed=0)[0]
    spec = ModelSpec(arch="graphsage", k=2, hidden_width=16, activation="relu", norm="none")
    cfg = TrainConfig(lr=0.05, max_epochs=200, early_stop_patience=100, lr_sched_patience=50, seed=1)
    m = train_model(spec, empty, x, labels, split, cfg)
    assert m.accuracies[0] <= 0.40  # chance is 0.25
