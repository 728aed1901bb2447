import numpy as np
import pytest

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


def test_normalize_writes_matrix(looped_graph_file, tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run_cli("normalize", "--graph", looped_graph_file, "--norm", "row", "--out", out) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(data.sum(axis=1), 1.0)


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


def test_gradcheck_pass_and_corrupt_negative_control(capsys):
    assert run_cli("gradcheck", "--arch", "k_layer_gcn", "--k", "3", "--seed", "1") == 0
    assert run_cli("gradcheck", "--arch", "hybrid_power_plus_linear", "--k", "4", "--seed", "2") == 0
    assert run_cli("gradcheck", "--arch", "k_layer_gcn", "--k", "3", "--seed", "1", "--corrupt") == 1
    assert run_cli("gradcheck", "--arch", "graphsage", "--k", "2", "--seed", "5", "--corrupt") == 1


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


@pytest.mark.parametrize("line, key", [("lr=abc", "lr"), ("max_epochs=1.5", "max_epochs")])
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
