import sys

import numpy as np
import pytest

from hopscope import cli, models
from hopscope.cli import main
from hopscope.errors import InputError
from hopscope.graphs import read_edge_list


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def looped_graph_file(tmp_path):
    path = tmp_path / "g.tsv"
    lines = ["%nodes 6"]
    lines += [f"{i}\t{(i + 1) % 6}" for i in range(6)]
    lines += [f"{i}\t{i}" for i in range(6)]  # self-loops
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def dag_file(tmp_path):
    path = tmp_path / "dag.tsv"
    path.write_text("0\t1\n1\t2\n2\t3\n0\t2\n", encoding="utf-8")
    return path


def test_analyze_loops_self_loop_pass(looped_graph_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli("analyze-loops", "--graph", looped_graph_file, "--lemma", "self_loop",
                   "--kmax", "4", "--out", out)
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "k,density,nnz,subset_holds"
    assert len(text.splitlines()) == 5
    assert "PASS" in capsys.readouterr().out


def test_analyze_loops_hypothesis_not_satisfied(tmp_path, capsys):
    path = tmp_path / "p3.tsv"
    path.write_text("0\t1\n1\t2\n", encoding="utf-8")
    code = run_cli("analyze-loops", "--graph", path, "--lemma", "self_loop", "--kmax", "3")
    assert code == 0
    assert "hypothesis not satisfied" in capsys.readouterr().out


def test_analyze_loops_dag(dag_file, capsys):
    code = run_cli("analyze-loops", "--graph", dag_file, "--lemma", "dag", "--kmax", "5")
    assert code == 0
    assert "h=3" in capsys.readouterr().out


def test_analyze_loops_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("0 1 junk extra\n", encoding="utf-8")
    assert run_cli("analyze-loops", "--graph", path, "--lemma", "self_loop", "--kmax", "2") == 2


def test_analyze_loops_missing_file_exit_2(tmp_path):
    assert run_cli("analyze-loops", "--graph", tmp_path / "nope.tsv", "--lemma", "dag", "--kmax", "2") == 2


def test_unknown_flag_rejected(looped_graph_file):
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze-loops", "--graph", looped_graph_file, "--lemma", "dag",
                "--kmax", "2", "--frobnicate")
    assert exc.value.code == 2


def test_density_curve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for out in (out1, out2):
        assert run_cli("density-curve", "--synth", "structure_only", "--n", "120",
                       "--kmax", "4", "--seed", "9", "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("flag", ["--noise=0.5", "--feature-signal=5"])
def test_density_curve_has_no_label_or_feature_flags(tmp_path, capsys, flag):
    # the graph is drawn before the labels and features, so these could not change the curve
    with pytest.raises(SystemExit) as exc:
        run_cli("density-curve", "--synth", "structure_only", "--n", "120", flag, "--out", tmp_path / "d.csv")
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_normalize_writes_matrix(looped_graph_file, tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run_cli("normalize", "--graph", looped_graph_file, "--norm", "row", "--out", out) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(data.sum(axis=1), 1.0)


def test_zero_epoch_budget_exit_2(capsys):
    assert run_cli("train", "--synth", "hybrid", "--n", "400", "--arch", "k_layer_gcn", "--splits", "1",
                   "--max-epochs", "0", "--early-stop-patience", "-1") == 2
    assert "max_epochs must be at least 1, got 0" in capsys.readouterr().err


def test_synth_then_train_round_trip(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert run_cli("synth", "--kind", "structure_only", "--n", "250", "--seed", "2", "--out", ds) == 0
    assert (ds / "edges.tsv").exists() and (ds / "labels.tsv").exists()
    assert not (ds / "features.csv").exists()  # uniform features stay implicit
    code = run_cli("train", "--dataset", ds, "--arch", "k_layer_gcn", "--k", "1",
                   "--norm", "row", "--prop", "reverse", "--splits", "2",
                   "--max-epochs", "30", "--early-stop-patience", "20",
                   "--lr-sched-patience", "10", "--out", tmp_path / "train.csv")
    assert code == 0
    lines = (tmp_path / "train.csv").read_text().splitlines()
    assert lines[0] == "split,accuracy,baseline,epochs_run,best_epoch"
    assert len(lines) == 3


def test_sweep_deterministic_and_row_count(tmp_path):
    args = ("sweep", "--synth", "structure_only", "--n", "250", "--arches",
            "k_layer_gcn,one_layer_power_k", "--kmax", "2", "--norm", "row",
            "--prop", "reverse", "--splits", "2", "--max-epochs", "25",
            "--early-stop-patience", "15", "--lr-sched-patience", "10", "--seed", "4")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    d1, d2 = tmp_path / "dd1.csv", tmp_path / "dd2.csv"
    assert run_cli(*args, "--out", out1, "--density-out", d1) == 0
    assert run_cli(*args, "--out", out2, "--density-out", d2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "arch,k,norm,propagation,acc_mean,acc_std,density,failures"
    assert len(lines) == 5  # 2 arches x k in {1,2}


def test_gradcheck_pass_and_corrupt_negative_control(capsys, monkeypatch):
    assert run_cli("gradcheck", "--arch", "k_layer_gcn", "--k", "3", "--seed", "1") == 0
    assert run_cli("gradcheck", "--arch", "hybrid_power_plus_linear", "--k", "4", "--seed", "2") == 0
    exact_backward = models.model_backward

    def corrupted_backward(*args, **kwargs):
        grads, norms = exact_backward(*args, **kwargs)
        flat = models.flat_gradients(grads)
        flat[0] += 0.1 * max(1.0, np.abs(flat).max())
        return models._views(flat, grads), norms

    monkeypatch.setattr(models, "model_backward", corrupted_backward)
    assert run_cli("gradcheck", "--arch", "k_layer_gcn", "--k", "3", "--seed", "1") == 1
    assert run_cli("gradcheck", "--arch", "graphsage", "--k", "2", "--seed", "5") == 1
    assert "gradcheck: FAIL" in capsys.readouterr().out


def test_non_integer_node_count_header_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("%nodes x\n0\t1\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        read_edge_list(path)
    assert run_cli("analyze-loops", "--graph", path, "--lemma", "self_loop", "--kmax", "2") == 2


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr=0.2\nmax_epochs=21\n", encoding="utf-8")
    ds = tmp_path / "ds"
    assert run_cli("synth", "--kind", "structure_only", "--n", "250", "--seed", "2", "--out", ds) == 0
    code = run_cli("train", "--dataset", ds, "--arch", "k_layer_gcn", "--k", "1",
                   "--norm", "row", "--prop", "reverse", "--splits", "1",
                   "--config", cfg, "--max-epochs", "19",
                   "--early-stop-patience", "15", "--lr-sched-patience", "10")
    assert code == 0
    text = capsys.readouterr().out
    assert "lr=0.2" in text            # from config file
    assert "max_epochs=19" in text     # explicit flag wins


def test_resolved_config_printed(looped_graph_file, capsys):
    run_cli("analyze-loops", "--graph", looped_graph_file, "--lemma", "dag", "--kmax", "2")
    assert "resolved config:" in capsys.readouterr().out


def test_bad_config_key_exit_2(looped_graph_file, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs=7\n", encoding="utf-8")
    assert run_cli("analyze-loops", "--graph", looped_graph_file, "--lemma", "dag",
                   "--kmax", "2", "--config", cfg) == 2


@pytest.mark.parametrize("line, key", [
    ("lr=abc", "lr"), ("max_epochs=1.5", "max_epochs"),
    ("seed=\u0663", "seed"), ("max_epochs=+3", "max_epochs"), ("lr=1_0.5", "lr"),
])
def test_bad_config_value_exit_2(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# run settings\n{line}\n", encoding="utf-8")
    assert run_cli("train", "--synth", "structure_only", "--n", "250", "--arch", "k_layer_gcn",
                   "--k", "1", "--splits", "1", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: {key}" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--per-class-train", "-1", "per_class_train"),
    ("--per-class-train", "0", "per_class_train"),
    ("--per-class-val", "0", "per_class_val"),
    ("--splits", "0", "n_splits"),
])
def test_bad_split_sizes_exit_2(capsys, flag, value, name):
    args = ["train", "--synth", "hybrid", "--n", "400", "--arch", "k_layer_gcn", "--splits", "1",
            "--max-epochs", "5", "--early-stop-patience", "3", "--lr-sched-patience", "2"]
    assert run_cli(*args, flag, value) == 2
    assert f"{name} must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_density_curve_nonpositive_kmax_exit_2(looped_graph_file, tmp_path, kmax):
    out = tmp_path / "d.csv"
    assert run_cli("density-curve", "--graph", looped_graph_file, "--kmax", kmax, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    *((["analyze-loops", "--lemma", lemma, "--m", "3", "--selfloops"], "k_max")
      for lemma in ("self_loop", "two_node", "m_node")),
    (["analyze-loops", "--lemma", "dag"], "--kmax"),  # checked before the cycle search ends the route
    (["density-curve"], "--kmax"),
    (["sweep", "--arches", "k_layer_gcn", "--density-out", "@dens.csv"], "--kmax"),
], ids=["self_loop", "two_node", "m_node", "dag", "density-curve", "sweep"])
def test_kmax_past_any_report_exit_2(looped_graph_file, tmp_path, capsys, argv, name):
    # past sys.maxsize no route may start a ladder or a set over range(1, kmax + 1): it would grow without end
    source = ["--synth", "structure_only", "--n", "60"] if argv[0] == "sweep" else ["--graph", looped_graph_file]
    out = [] if argv[0] == "analyze-loops" else ["--out", tmp_path / "out.csv"]
    argv = [str(a).replace("@", f"{tmp_path}/") for a in argv]
    assert run_cli(*argv, *source, *out, "--kmax", "100000000000000000000") == 2
    assert f"{name} must be at most {sys.maxsize}, got 100000000000000000000" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_two_main_calls_build_the_parser_once(looped_graph_file, tmp_path, capsys):
    cli.build_parser.cache_clear()
    outs = []
    for _ in range(2):
        assert run_cli("density-curve", "--graph", looped_graph_file, "--kmax", "2", "--out", tmp_path / "d.csv") == 0
        outs.append(capsys.readouterr().out)
    assert cli.build_parser.cache_info().misses == 1
    assert outs[0] == outs[1] and outs[0].startswith("resolved config: ")


def test_m_node_without_m_exit_2(looped_graph_file):
    assert run_cli("analyze-loops", "--graph", looped_graph_file, "--lemma", "m_node",
                   "--kmax", "2") == 2


def test_hopeless_cycle_search_exit_2(tmp_path, capsys):
    # bidirected K7,7 is bipartite, so the search for a 9-cycle runs out of budget
    path = tmp_path / "k77.tsv"
    edges = "".join(f"{i}\t{7 + j}\n{7 + j}\t{i}\n" for i in range(7) for j in range(7))
    path.write_text(edges, encoding="utf-8")
    assert run_cli("analyze-loops", "--graph", path, "--lemma", "m_node", "--m", "9", "--kmax", "2") == 2
    assert "cycle search for m=9 gave up" in capsys.readouterr().err


def test_reverse_flag_transposes(tmp_path):
    path = tmp_path / "p2.tsv"
    path.write_text("0\t1\n", encoding="utf-8")
    out = tmp_path / "w.csv"
    assert run_cli("normalize", "--graph", path, "--norm", "none", "--reverse", "--out", out) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data[1, 0] == 1.0 and data[0, 1] == 0.0


def test_density_curve_symmetrized_selflooped_saturates(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("density-curve", "--synth", "structure_only", "--n", "250",
                   "--symmetrize", "--selfloops", "--kmax", "6", "--seed", "3",
                   "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,density,nnz"
    densities = [float(line.split(",")[1]) for line in lines[1:]]
    # two-way propagation with self-loops drives the reach toward everything
    assert densities == sorted(densities)
    assert densities[-1] > 0.9


def test_density_csv_round_trip_keeps_monotone_column(looped_graph_file, tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("density-curve", "--graph", looped_graph_file, "--kmax", "5",
                   "--out", out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    ks = [int(r[0]) for r in rows]
    densities = [float(r[1]) for r in rows]
    assert ks == list(range(1, 6))
    assert densities == sorted(densities)  # self-looped input: non-decreasing


@pytest.mark.parametrize("text, where", [
    ("%nodes 99999999999999999999\n0\t1\n", "line 1: node count outside the 64-bit integer range"),
    ("# header after a comment\n%nodes 99999999999999999999\n0\t1\n",
     "line 2: node count outside the 64-bit integer range"),
    ("%nodes 9223372036854775808\n", "line 1: node count outside the 64-bit integer range"),
    ("%nodes 000000000000000000000000000000000009223372036854775808\n", "line 1: node count outside"),
    ("%nodes " + "9" * 5000 + "\n", "line 1: node count outside"),  # past int()'s digit limit
    ("1\t99999999999999999999\n", "node id outside the 64-bit integer range"),
    ("# comment\n-99999999999999999999\t0\n", "node id outside the 64-bit integer range"),
], ids=["count-first-line", "count-after-comment", "count-2-pow-63", "count-leading-zeros",
        "count-5000-digits", "id-plain", "id-after-comment"])
def test_int64_overflow_in_edge_list_exit_2(tmp_path, capsys, text, where):
    path = tmp_path / "big.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=where):
        read_edge_list(path)
    assert run_cli("density-curve", "--graph", path, "--kmax", "2", "--out", tmp_path / "d.csv") == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed input always ends in exit 2


_NOT_UTF8 = b"0\t1\n1\t2\xff\n"


def test_edge_list_that_is_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "g.tsv"
    path.write_bytes(_NOT_UTF8)
    with pytest.raises(InputError, match=f"cannot read edge list {path}"):
        read_edge_list(path)
    assert run_cli("analyze-loops", "--graph", path, "--lemma", "dag", "--kmax", "2") == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["edges.tsv", "labels.tsv", "features.csv"])
def test_dataset_file_that_is_not_utf8_exit_2(tmp_path, capsys, name):
    from hopscope import DatasetError, load_dataset

    (tmp_path / "edges.tsv").write_text("%nodes 3\n0\t1\n1\t2\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\t0\n1\t1\n2\t0\n", encoding="utf-8")
    (tmp_path / "features.csv").write_text("0,1\n1,0\n2,3\n", encoding="utf-8")
    (tmp_path / name).write_bytes((tmp_path / name).read_bytes() + b"\xff\n")
    with pytest.raises(DatasetError, match=f"{tmp_path / name} is not UTF-8 text"):
        load_dataset(tmp_path)
    assert run_cli("train", "--dataset", tmp_path, "--arch", "k_layer_gcn", "--splits", "1") == 2
    assert name in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exit_2(looped_graph_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=1\n# caf\xe9\n")
    assert run_cli("analyze-loops", "--graph", looped_graph_file, "--lemma", "dag",
                   "--kmax", "2", "--config", cfg) == 2
    assert f"config file {cfg} is not UTF-8 text" in capsys.readouterr().err


_CHEAP_RUNS = {
    "train": ["train", "--synth", "structure_only", "--n", "60", "--arch", "k_layer_gcn", "--splits", "1",
              "--max-epochs", "3", "--early-stop-patience", "2", "--lr-sched-patience", "1"],
    "synth": ["synth", "--kind", "hybrid", "--n", "60"],
    "gradcheck": ["gradcheck", "--arch", "k_layer_gcn", "--k", "1"],
}


@pytest.mark.parametrize("command", sorted(_CHEAP_RUNS))
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_negative_seed_exit_2(tmp_path, capsys, command, via_config):
    argv = list(_CHEAP_RUNS[command])
    if command == "synth":
        argv += ["--out", str(tmp_path / "ds")]
    if via_config:
        (tmp_path / "run.cfg").write_text("seed=-3\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        argv += ["--seed", "-3"]
    assert run_cli(*argv) == 2
    assert "seed must be at least 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("key, value", [("lr", "nan"), ("lr", "inf"), ("lr", "-inf"), ("l2", "nan"),
                                        ("l2", "inf")])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_non_finite_rate_exit_2(tmp_path, capsys, key, value, via_config):
    if via_config:
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
        extra = ["--config", tmp_path / "run.cfg"]
    else:
        extra = [f"--{key}={value}"]
    assert run_cli(*_CHEAP_RUNS["train"], *extra) == 2
    err = capsys.readouterr().err
    assert ("learning rate" if key == "lr" else "l2") in err and "finite" in err


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("flag, value", [("--noise", "-0.1"), ("--noise", "1.5"), ("--noise", "nan"),
                                         ("--feature-signal", "nan"), ("--feature-signal", "inf"),
                                         ("--feature-signal", "-inf")])
def test_bad_synthetic_knob_exit_2(tmp_path, capsys, command, flag, value):
    argv = ["synth", "--kind", "hybrid", "--out", tmp_path / "ds"] if command == "synth" else _CHEAP_RUNS["train"]
    assert run_cli(*argv, "--n", "60", f"{flag}={value}") == 2
    message = "noise must be in [0, 1]" if flag == "--noise" else "feature_signal must be finite"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


# ---------------------------------------------------------------------------
# precedence: explicit flag > --paper-protocol > --config > built-in default


_TINY_TRAIN = ["train", "--synth", "structure_only", "--n", "60", "--arch", "k_layer_gcn", "--splits", "1",
               "--per-class-train", "3", "--per-class-val", "3"]
_TINY_BUDGET = ["--max-epochs", "5", "--early-stop-patience", "3", "--lr-sched-patience", "2"]


def _printed_config(text: str) -> dict[str, str]:
    (line,) = [line for line in text.splitlines() if line.startswith("resolved config: ")]
    return dict(item.split("=", 1) for item in line.removeprefix("resolved config: ").split())


def _epochs_run(text: str) -> list[int]:
    (line,) = [line for line in text.splitlines() if line.startswith("majority baseline")]
    return [int(e) for e in line.split("epochs_run=[")[1].rstrip("]").split(", ")]


@pytest.fixture()
def run_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr=0.2\nmax_epochs=21\nearly_stop_patience=11\nseed=3\n", encoding="utf-8")
    return path


def test_abbreviated_flag_beats_config(run_cfg, capsys):
    assert run_cli(*_TINY_TRAIN, "--config", run_cfg, "--max-ep", "5", "--early-stop-p=3",
                   "--lr-sched", "2") == 0
    out = capsys.readouterr().out
    printed = _printed_config(out)
    assert (printed["max_epochs"], printed["early_stop_patience"], printed["lr"]) == ("5", "3", "0.2")
    assert max(_epochs_run(out)) <= 5


def test_paper_protocol_yields_to_explicit_budget_flags(capsys):
    assert run_cli(*_TINY_TRAIN, "--paper-protocol", *_TINY_BUDGET) == 0
    out = capsys.readouterr().out
    printed = _printed_config(out)
    assert [printed[k] for k in ("max_epochs", "early_stop_patience", "lr_sched_patience")] == ["5", "3", "2"]
    assert max(_epochs_run(out)) <= 5


def test_paper_protocol_alone_runs_the_paper_budget(capsys):
    from hopscope.training import Metrics, TrainConfig, make_splits, synthesize_dataset, train_splits
    from hopscope.datasets import fmt_real

    assert run_cli(*_TINY_TRAIN, "--paper-protocol") == 0
    out = capsys.readouterr().out
    assert "max_epochs=1500" in out and "early_stop_patience=410" in out and "lr_sched_patience=80" in out
    graph, x, labels = synthesize_dataset("structure_only", n=60, seed=0)
    splits = make_splits(labels, per_class_train=3, per_class_val=3, n_splits=1, seed=0)
    runs, _ = train_splits(models.ModelSpec("k_layer_gcn", k=2), graph, x, labels, splits,
                           TrainConfig.paper_protocol())
    merged = Metrics.merge(runs)
    assert f"test accuracy: mean={fmt_real(merged.mean)} std={fmt_real(merged.std)} over 1 runs" in out
    assert _epochs_run(out) == list(merged.epochs_run)


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("extra", [
    [],
    ["--config", "CFG"],
    ["--config", "CFG", "--max-ep", "19", "--seed=8"],
    ["--paper-protocol"],
    ["--paper-protocol", "--config", "CFG"],
    ["--config", "CFG", "--paper", "--max-epochs=900", "--early-stop", "7", "--lr-s", "2", "--lr=0.5"],
    ["--drop", "0.25", "--l2", "0.001", "--paper-protocol", "--early-stop-patience", "1400"],
], ids=["defaults", "config", "config-abbrev", "paper", "paper-config", "all-three", "paper-partial"])
def test_printed_config_is_the_config_that_ran(tmp_path, capsys, monkeypatch, run_cfg, command, extra):
    ran = []
    monkeypatch.setattr(cli, "train_splits", lambda *args: ran.append(args[-1]) or ([], []))
    monkeypatch.setattr(cli, "run_sweep", lambda templates, ks, dataset, cfg, **kw: ran.append(cfg) or [])
    argv = [str(run_cfg) if a == "CFG" else a for a in extra]
    if command == "train":
        run_cli(*_TINY_TRAIN, *argv)
    else:
        run_cli("sweep", "--synth", "structure_only", "--n", "60", "--arches", "k_layer_gcn", "--kmax", "1",
                "--out", tmp_path / "s.csv", *argv)
    printed = _printed_config(capsys.readouterr().out)
    (cfg,) = ran
    assert {k: str(v) for k, v in vars(cfg).items()} == {k: printed[k] for k in vars(cfg)}
    if "--paper-protocol" in extra or "--paper" in extra:
        assert cfg.lr_sched_patience == (2 if "--lr-s" in extra else 80)


def test_paper_protocol_beats_config(run_cfg, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "train_splits", lambda *args: ran.append(args[-1]) or ([], []))
    run_cli(*_TINY_TRAIN, "--config", run_cfg, "--paper-protocol")
    (cfg,) = ran
    assert (cfg.max_epochs, cfg.early_stop_patience, cfg.lr, cfg.seed) == (1500, 410, 0.2, 3)
    assert "max_epochs=1500" in capsys.readouterr().out
