"""Smoke tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run  # sets up the import path for hopscope
import tracing
import workloads
from hopscope import models, training

SPEC = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fingerprint(inputs) -> tuple:
    if isinstance(inputs, workloads.StructureInputs):
        return (inputs.edges.tobytes(), inputs.labels.tobytes(), inputs.loop_graph.read_bytes(),
                inputs.stride.col_indices.tobytes())
    graph, x, labels = inputs.dataset
    return graph.col_indices.tobytes(), graph.values.tobytes(), x.tobytes(), labels.tobytes()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_pass_is_correct_and_repeatable(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(1, workloads.TOY, tmp_path)
    first, second = wl.run(inputs), wl.run(inputs)
    assert first.attempted > 0 and first.failed == 0, first.problems
    assert first.digest == second.digest
    assert len(first.op_seconds) == len(second.op_seconds) > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs(name, tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        return _fingerprint(workloads.WORKLOADS[name].setup(seed, workloads.TOY, tmp_path / sub))

    one, again, other = inputs(1, "a"), inputs(1, "b"), inputs(2, "c")
    assert one == again
    assert one != other


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(name, trace):
    passes, metrics, _ = run.measure(name, 3, 0.01, trace, scale=workloads.TOY, setup_repeats=1)
    out = run.result(passes, metrics)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_tracer_sees_calls_made_inside_the_library_and_restores_them(tmp_path):
    original = training.model_forward
    inputs = workloads.WORKLOADS["deep_stack"].setup(1, workloads.TOY, tmp_path)
    with tracing.Tracer() as tracer:
        assert training.model_forward is not original
        workloads.WORKLOADS["deep_stack"].run(inputs)
    assert training.model_forward is original and models.model_forward is original
    by_id = tracer.spans
    forwards = [s for s in by_id if s.name == "models.model_forward"]
    assert forwards and all(by_id[s.parent].name == "training.train_model" for s in forwards)
    m = tracing.layer_metrics(tracer.spans, cells=1)
    assert m["training.epochs"] == workloads.TOY.deep_epochs * workloads.TOY.splits
    assert m["models.aggregations_per_cell"] == workloads.TOY.splits


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("a", 0.0, 10.0, -1),
        tracing.Span("b", 1.0, 4.0, 0),
        tracing.Span("c", 2.0, 3.0, 1),
        tracing.Span("d", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
