import numpy as np
import pytest

from hopscope import (
    DatasetError,
    dataset_stats,
    from_dense,
    from_edge_list,
    load_dataset,
    load_matrix_csv,
    normalize,
    save_dataset,
    save_matrix_csv,
    save_sweep_csv,
    synthesize_dataset,
)
from hopscope import datasets
from hopscope.cli import main
from hopscope.datasets import resolve_dataset_dir
from hopscope.training import SweepRow


def write_toy(tmp_path, features=True):
    (tmp_path / "edges.tsv").write_text("%nodes 3\n0\t1\n1\t2\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\t0\n1\t1\n2\t0\n", encoding="utf-8")
    if features:
        (tmp_path / "features.csv").write_text("0,1.5,2\n1,0,1\n2,3,4\n", encoding="utf-8")
    return tmp_path


def test_load_toy_dataset(tmp_path):
    bundle = load_dataset(write_toy(tmp_path))
    assert bundle.graph.n_rows == 3
    assert bundle.n_classes == 2
    assert bundle.labels.tolist() == [0, 1, 0]
    assert bundle.features.shape == (3, 2)
    assert bundle.stats.n_edges == 2


def test_load_without_features_is_uniform(tmp_path):
    bundle = load_dataset(write_toy(tmp_path, features=False))
    assert bundle.features is None


def test_missing_labels_file(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_unknown_node_in_labels(tmp_path):
    (tmp_path / "edges.tsv").write_text("%nodes 2\n0\t1\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\t0\n1\t0\n5\t1\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_node_without_label(tmp_path):
    (tmp_path / "edges.tsv").write_text("%nodes 3\n0\t1\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\t0\n1\t1\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_ragged_features(tmp_path):
    path = write_toy(tmp_path, features=False)
    (path / "features.csv").write_text("0,1,2\n1,1\n2,0,0\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(path)


@pytest.mark.parametrize("name, text, where", [
    ("edges.tsv", "%nodes x\n0\t1\n", "edges.tsv:1"),
    ("labels.tsv", "0\t0\none\t1\n2\t0\n", "labels.tsv:2"),
    ("labels.tsv", "0\t0\n1\tB\n2\t0\n", "labels.tsv:2"),
    ("features.csv", "0,1\n1,1\nx,1\n", "features.csv:3"),
    ("features.csv", "0,1\n1,abc\n2,1\n", "features.csv:2"),
    ("edges.tsv", "0\t1\n1\t99999999999999999999\n", "edges.tsv: node id outside the 64-bit"),
    ("edges.tsv", "%nodes \u0663\n0\t1\n", "edges.tsv:1: bad header"),
    ("edges.tsv", "%nodes 3\n0\t1\n1_0\t2\n", "edges.tsv:3: non-integer endpoint"),
    ("edges.tsv", "%nodes 3\n0\t+1\n", "edges.tsv:2: non-integer endpoint"),
    ("edges.tsv", "%nodes 3\n0\t\u0661\n", "edges.tsv:2: non-integer endpoint"),
    ("labels.tsv", "0\t0\n+1\t1\n2\t0\n", "labels.tsv:2: expected an integer node id"),
    ("labels.tsv", "0\t0\n\u0661\t1\n2\t0\n", "labels.tsv:2: expected an integer node id"),
    ("labels.tsv", "0\t0\n1\t1\n2\t1_0\n", "labels.tsv:3: expected an integer node id and 1 integer value"),
    ("labels.tsv", "0\t0\n1\t+1\n2\t0\n", "labels.tsv:2: expected an integer node id and 1 integer value"),
    ("labels.tsv", "0\t0\n1\t\u0661\n2\t0\n", "labels.tsv:2: expected an integer node id and 1 integer value"),
    ("features.csv", "0,1\n+1,1\n2,1\n", "features.csv:2: expected an integer node id"),
    ("features.csv", "0,1\n1,1\n\u0662,1\n", "features.csv:3: expected an integer node id"),
    ("features.csv", "0,1\n1,1_0\n2,1\n", "features.csv:2: expected an integer node id and 1 numeric value"),
    ("features.csv", "0,1\n1,\u0661.5\n2,1\n", "features.csv:2: expected an integer node id and 1 numeric value"),
    ("features.csv", "0,1\n1,1\n1,2\n2,1\n", "features.csv:3: duplicate line for node 1"),
    ("labels.tsv", "0\t0\n1\t1\n1\t0\n2\t0\n", "labels.tsv:3: duplicate line for node 1"),
    ("features.csv", "0,1\n1\n2,1\n", "features.csv:2: expected an integer node id and 1 numeric value"),
], ids=["edges-node-count", "labels-node", "labels-class", "features-node", "features-value", "edges-id-range",
        "edges-non-ascii-count", "edges-underscore", "edges-plus", "edges-non-ascii-id",
        "labels-node-plus", "labels-node-non-ascii", "labels-class-underscore", "labels-class-plus",
        "labels-class-non-ascii", "features-node-plus", "features-node-non-ascii", "features-value-underscore",
        "features-value-non-ascii", "features-duplicate-node", "labels-duplicate-node", "features-no-value"])
def test_malformed_dataset_file_is_dataset_error(tmp_path, capsys, name, text, where):
    write_toy(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError, match=where):
        load_dataset(tmp_path)
    assert main(["train", "--dataset", str(tmp_path), "--arch", "k_layer_gcn", "--splits", "1"]) == 2


def test_sparse_external_ids_are_remapped(tmp_path):
    (tmp_path / "edges.tsv").write_text("10\t30\n30\t77\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("10\t4\n30\t9\n77\t4\n", encoding="utf-8")
    bundle = load_dataset(tmp_path)
    assert bundle.graph.n_rows == 3
    assert bundle.labels.tolist() == [0, 1, 0]  # class ids densified too
    assert np.array_equal(bundle.graph.to_dense(), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_dedup_flag(tmp_path):
    (tmp_path / "edges.tsv").write_text("%nodes 2\n0\t1\n0\t1\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("0\t0\n1\t1\n", encoding="utf-8")
    assert load_dataset(tmp_path).graph.to_dense()[0, 1] == 2
    assert load_dataset(tmp_path, dedup=True).graph.to_dense()[0, 1] == 1


def test_stats_match_recomputation(tmp_path):
    bundle = load_dataset(write_toy(tmp_path))
    assert bundle.stats == dataset_stats(bundle.graph, bundle.labels)
    assert bundle.stats.pct_no_in == pytest.approx(100 / 3)
    assert bundle.stats.pct_no_out == pytest.approx(100 / 3)


def test_save_dataset_round_trip(tmp_path):
    graph, x, labels = synthesize_dataset("hybrid", n=200, seed=3)
    out = tmp_path / "ds"
    save_dataset(graph, x, labels, out)
    bundle = load_dataset(out)
    assert bundle.graph == graph
    assert np.array_equal(bundle.labels, labels)
    assert np.allclose(bundle.features, x, rtol=1e-11)


def _reference_edges_tsv(graph):
    """The edge-list text of a per-row writer: one line per unit of multiplicity."""
    lines = [f"%nodes {graph.n_rows}"]
    for i in range(graph.n_rows):
        cols, vals = graph.row(i)
        for c, v in zip(cols.tolist(), vals.tolist()):
            lines.extend([f"{i}\t{c}"] * v)
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_save_dataset_edges_match_per_row_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_WRITE_BLOCK", 4)  # several blocks, one split mid-row
    rng = np.random.default_rng(4)
    n = 40
    edges = rng.integers(0, n // 2, size=(120, 2))  # nodes n/2.. stay empty
    edges = np.concatenate([edges, np.repeat([[3, 7], [19, 0]], [3, 5], axis=0)])
    graph = from_edge_list(edges, n)
    assert graph.values.max() >= 5 and np.count_nonzero(np.diff(graph.row_offsets) == 0) >= n // 2
    save_dataset(graph, None, np.zeros(n, dtype=np.int64), tmp_path / "ds")
    assert (tmp_path / "ds" / "edges.tsv").read_bytes() == _reference_edges_tsv(graph)


def test_save_dataset_writes_empty_graph(tmp_path):
    graph = from_edge_list([], 3)
    save_dataset(graph, None, [0, 1, 0], tmp_path)
    assert (tmp_path / "edges.tsv").read_bytes() == _reference_edges_tsv(graph) == b"%nodes 3\n"
    assert load_dataset(tmp_path).graph == graph


def test_save_load_round_trip_at_ten_thousand_nodes(tmp_path):
    rng = np.random.default_rng(9)
    n = 10_000
    edges = rng.integers(0, n, size=(40_000, 2))
    graph = from_edge_list(np.concatenate([edges, edges[:4_000]]), n)
    save_dataset(graph, None, rng.integers(0, 3, size=n), tmp_path)
    assert load_dataset(tmp_path).graph == graph


def test_resolve_dataset_dir_env(tmp_path, monkeypatch):
    write_toy(tmp_path / "toy" if (tmp_path / "toy").mkdir() or True else None)
    monkeypatch.setenv("HOPSCOPE_DATA_DIR", str(tmp_path))
    assert resolve_dataset_dir("toy") == tmp_path / "toy"
    with pytest.raises(DatasetError):
        resolve_dataset_dir("absent")


# ---------------------------------------------------------------------------
# matrix and sweep CSV


def test_matrix_csv_round_trip_counts(tmp_path):
    a = from_edge_list([(0, 1), (0, 1), (2, 0)], 3)
    path = tmp_path / "m.csv"
    save_matrix_csv(a, path)
    back = load_matrix_csv(path)
    assert np.array_equal(back.astype(np.int64), a.to_dense())
    assert from_dense(back.astype(np.int64)) == a


def test_matrix_csv_round_trip_weighted(tmp_path):
    a = from_edge_list([(0, 1), (1, 0), (1, 2), (2, 1)], 3)
    w = normalize(a, "sym")
    path = tmp_path / "w.csv"
    save_matrix_csv(w, path)
    back = load_matrix_csv(path)
    assert np.allclose(back, w.to_dense(), rtol=1e-11)


def test_sweep_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "s.csv"
    save_sweep_csv([], path)
    assert path.read_text() == "arch,k,norm,propagation,acc_mean,acc_std,density,failures\n"


def test_sweep_csv_rows(tmp_path):
    rows = [SweepRow("k_layer_gcn", 2, "sym", "forward", 0.5, 0.1, 0.25, 0)]
    path = tmp_path / "s.csv"
    save_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "k_layer_gcn,2,sym,forward,0.5,0.1,0.25,0"
