import warnings

import numpy as np
import pytest

from hopscope import (
    DatasetError,
    InputError,
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
from hopscope import datasets, graphs
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
    ("edges.tsv", "0\t1\n1\t99999999999999999999\n", "edges.tsv:2: node id outside the 64-bit"),
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
    ("features.csv", "0,1\n1,nan\n2,1\n", "features.csv:2: non-finite value in '1,nan'"),
    ("features.csv", "0,1\n1,1\n2,-inf\n", "features.csv:3: non-finite value in '2,-inf'"),
], ids=["edges-node-count", "labels-node", "labels-class", "features-node", "features-value", "edges-id-range",
        "edges-non-ascii-count", "edges-underscore", "edges-plus", "edges-non-ascii-id",
        "labels-node-plus", "labels-node-non-ascii", "labels-class-underscore", "labels-class-plus",
        "labels-class-non-ascii", "features-node-plus", "features-node-non-ascii", "features-value-underscore",
        "features-value-non-ascii", "features-duplicate-node", "labels-duplicate-node", "features-no-value",
        "features-nan", "features-inf"])
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


def test_stats_edge_count_is_exact_past_int64():
    # node 0's out-degree 2**64 wraps to 0 in int64
    stats = dataset_stats(from_dense([[2**62] * 4 + [0]] + [[0] * 5] * 4), np.arange(5))
    assert type(stats.n_edges) is int and stats.n_edges == 2**64
    assert (stats.pct_no_in, stats.pct_no_out) == (20.0, 80.0)


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


def test_round_trip_spans_several_read_and_write_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_WRITE_BLOCK", 7)
    monkeypatch.setattr(graphs, "_TABLE_BLOCK", 64)
    rng = np.random.default_rng(8)
    n = 63
    graph = from_edge_list(rng.integers(0, n, size=(400, 2)), n)
    # the int64 ends, magnitudes that fit uint32, ones that do not, single digits: 7-row blocks take both widths
    labels = np.concatenate([[-2**63, 2**63 - 1], rng.integers(-2**32 + 1, 2**32, size=19),
                             rng.integers(-2**62, 2**62, size=21), rng.integers(0, 10, size=21)])
    save_dataset(graph, None, labels, tmp_path)
    assert (tmp_path / "edges.tsv").stat().st_size > 20 * graphs._TABLE_BLOCK
    bundle = load_dataset(tmp_path)
    class_ids = np.unique(labels)
    assert bundle.graph == graph and bundle.features is None
    assert bundle.n_classes == len(class_ids) and np.array_equal(class_ids[bundle.labels], labels)


@pytest.mark.parametrize("labels", [
    [-3, 0, -9_223_372_036_854_775_808, 7],  # negative, down to -2**63
    [0, 1_000_000, 42, 1_000_000],  # sparse
    [9_223_372_036_854_775_807, 1_000_000_000_000_000_000, -1_000_000_000_000_000_000, 5],  # 19 digits
    [],
], ids=["negative", "sparse", "19-digit", "no-nodes"])
def test_save_dataset_labels_match_per_line_writer(tmp_path, labels):
    save_dataset(from_edge_list([], len(labels)), None, np.array(labels, dtype=np.int64), tmp_path)
    want = "\n".join(f"{i}\t{c}" for i, c in enumerate(labels)) + "\n"
    assert (tmp_path / "labels.tsv").read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("labels, features, message", [
    ([0.7, 1.2, 2.9], None, "labels must hold integers, got 0.7$"),
    ([0, 1, 2**63], None, "labels must hold integers, got 9.223372036854776e"),  # numpy reads this list as floats
    (np.array([0, 1, 2**63], dtype=np.uint64), None, "labels must hold integers, got 9223372036854775808$"),
    ([0, 1, 2**64], None, "labels must hold integers, got object values$"),
    ([0, 1], None, r"labels must be one class id per node, shape \(3,\), got \(2,\)$"),
    ([0, 1, 0], [[1.0], [2.0], [1j]], "features must hold real numbers, got complex128 values$"),
], ids=["float", "past-int64", "uint64", "past-uint64", "short", "complex-features"])
def test_save_dataset_rejects_labels_it_would_change_before_writing(tmp_path, labels, features, message):
    with pytest.raises(InputError, match=message):
        save_dataset(from_edge_list([(0, 1)], 3), features, labels, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("features, message", [
    ([1.0, 2.0, 3.0], r"features must be 2-D, got shape \(3,\)$"),
    (np.ones((3, 1, 1)), r"features must be 2-D, got shape \(3, 1, 1\)$"),
    (np.ones((2, 1)), r"features must be one row per node, shape \(3, d >= 1\), got \(2, 1\)$"),
    (np.ones((3, 0)), r"features must be one row per node, shape \(3, d >= 1\), got \(3, 0\)$"),
    ([[1.0], [np.nan], [2.0]], "features must hold finite values, got nan$"),
    ([[1.0], [2.0], [-np.inf]], "features must hold finite values, got -inf$"),
], ids=["1-D", "3-D", "short", "no-columns", "nan", "inf"])
def test_save_dataset_refuses_features_its_loader_would_refuse(tmp_path, features, message):
    with pytest.raises(InputError, match=message):
        save_dataset(from_edge_list([(0, 1)], 3), features, [0, 1, 0], tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_save_dataset_round_trips_integer_and_boolean_features(tmp_path):
    features = np.array([[-3, 1], [0, 2**30], [7, 1]])
    save_dataset(from_edge_list([(0, 1)], 3), features, [0, 1, 0], tmp_path / "int")
    save_dataset(from_edge_list([(0, 1)], 3), features > 0, [0, 1, 0], tmp_path / "bool")
    assert (tmp_path / "int" / "features.csv").read_text() == "0,-3,1\n1,0,1073741824\n2,7,1\n"
    assert np.array_equal(load_dataset(tmp_path / "int").features, features.astype(np.float64))
    assert np.array_equal(load_dataset(tmp_path / "bool").features, (features > 0).astype(np.float64))


def test_blank_edge_body_loads_without_warning(tmp_path):
    write_toy(tmp_path, features=False)
    (tmp_path / "edges.tsv").write_text("%nodes 3\n\n \t\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = load_dataset(tmp_path)
    assert bundle.graph == from_edge_list([], 3)


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


@pytest.mark.parametrize("text, line", [
    ("c0,c1\n1,abc\n", 2),
    ("c0,c1\n1,2\n3\n", 3),
    ("c0,c1\n1,2,3\n", 2),
    ("c0\n1_0\n", 2),
    ("c0\n\u0663\n", 2),
    ("c0\n1\nnan\n", 3),
    ("c0\n-inf\n", 2),
    ("c0\n\n1\n", 2),
])
def test_matrix_csv_bad_rows_name_their_line(tmp_path, text, line):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=f"^{path}:{line}: "):
        load_matrix_csv(path)


@pytest.mark.parametrize("content", [None, b"c0\n\xff\n", b""])
def test_matrix_csv_unreadable_or_empty_file_names_it(tmp_path, content):
    path = tmp_path / "m.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(InputError, match=str(path)):
        load_matrix_csv(path)


def test_matrix_csv_header_only_is_zero_rows_wide(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv(np.zeros((0, 3)), path)
    assert path.read_text() == "c0,c1,c2\n"
    assert load_matrix_csv(path).shape == (0, 3)


@pytest.mark.parametrize("m, message", [
    (np.ones(3), r"matrix must be 2-D, got shape \(3,\)$"),
    (np.ones((2, 2, 2)), r"matrix must be 2-D, got shape \(2, 2, 2\)$"),
    ([["a", "b"]], "matrix must hold real numbers, got <U1 values$"),
    ([[1.0, np.inf]], "matrix must hold finite values, got inf$"),
    ([[np.nan]], "matrix must hold finite values, got nan$"),
], ids=["1-D", "3-D", "strings", "inf", "nan"])
def test_save_matrix_csv_refuses_what_load_matrix_csv_would_refuse(tmp_path, m, message):
    path = tmp_path / "m.csv"
    with pytest.raises(InputError, match=message):
        save_matrix_csv(m, path)
    assert not path.exists()


def test_save_matrix_csv_keeps_integer_cells(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv(np.array([[2**62 + 1, -1]]), path)
    save_matrix_csv(np.array([[2**64 - 1, 0]], dtype=np.uint64), tmp_path / "u.csv")
    save_matrix_csv(np.eye(2, dtype=bool), tmp_path / "b.csv")
    assert path.read_text() == "c0,c1\n4611686018427387905,-1\n"
    assert (tmp_path / "u.csv").read_text() == "c0,c1\n18446744073709551615,0\n"
    assert (tmp_path / "b.csv").read_text() == "c0,c1\n1,0\n0,1\n"


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


@pytest.mark.parametrize("text, where", [
    ("%nodes 99999999999999999999\n0\t1\n", r"edges.tsv:1: node count outside the 64-bit integer range"),
    ("# comment\n%nodes 99999999999999999999\n0\t1\n", r"edges.tsv:2: node count outside the 64-bit integer range"),
    ("%nodes 3\n-1\t0\n", r"edges.tsv: edge endpoint outside declared %nodes 3: \(-1, 0\)"),
    ("%nodes 3\n0\t1\n2\t3\n", r"edges.tsv: edge endpoint outside declared %nodes 3: \(2, 3\)"),
    ("# comment\n%nodes 3\n0\t-2\n", r"edges.tsv: edge endpoint outside declared %nodes 3: \(0, -2\)"),
], ids=["count-first-line", "count-after-comment", "negative-id", "id-over-count", "negative-id-after-comment"])
def test_edges_outside_their_range_name_the_file(tmp_path, capsys, text, where):
    write_toy(tmp_path)
    (tmp_path / "edges.tsv").write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError, match=where):
        load_dataset(tmp_path)
    assert main(["train", "--dataset", str(tmp_path), "--arch", "k_layer_gcn", "--splits", "1"]) == 2


_PADDED = "0" * 5000  # past int()'s 4300-character limit
_PAST_INT64 = ("99999999999999999999", "-9223372036854775809", _PADDED + "9223372036854775808")


@pytest.mark.parametrize("comment", ["", "# c\n"], ids=["table", "line-grammar"])
def test_integer_tokens_read_alike_on_both_routes(tmp_path, comment):
    # a comment line sends a file to the line grammar; every answer is the table route's
    write_toy(tmp_path, features=False)
    (tmp_path / "edges.tsv").write_text(f"{comment}%nodes 3\n0\t{_PADDED}1\n-0\t2\n", encoding="utf-8")
    (tmp_path / "labels.tsv").write_text(f"{comment}0\t0\n{_PADDED}1\t-{_PADDED}7\n2\t9223372036854775807\n",
                                         encoding="utf-8")
    bundle = load_dataset(tmp_path)
    assert bundle.graph == from_edge_list([(0, 1), (0, 2)], 3) and bundle.labels.tolist() == [1, 0, 2]
    for token in _PAST_INT64:
        (tmp_path / "edges.tsv").write_text(f"{comment}0\t1\n1\t{token}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"edges.tsv:{2 + bool(comment)}: node id outside the 64-bit"):
            load_dataset(tmp_path)
        with pytest.raises(InputError, match=f"line {2 + bool(comment)}: node id outside the 64-bit"):
            graphs.edge_array(f"{comment}0\t1\n{token}\t1\n")
    (tmp_path / "edges.tsv").write_text("%nodes 3\n0\t1\n1\t2\n", encoding="utf-8")
    for line in (f"1\t{_PAST_INT64[0]}", f"{_PAST_INT64[2]}\t1"):  # a class id, then a node id
        (tmp_path / "labels.tsv").write_text(f"{comment}0\t0\n{line}\n2\t0\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"labels.tsv:{2 + bool(comment)}: integer outside the 64-bit range"):
            load_dataset(tmp_path)


def test_written_dataset_loads_without_the_line_grammar(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    n = 3_000
    ring = np.stack([np.arange(n), np.roll(np.arange(n), -1)], axis=1)  # every node has an edge
    graph = from_edge_list(np.concatenate([ring, rng.integers(0, n, size=(9_000, 2)), ring[:50]]), n)
    labels = rng.integers(0, 4, size=n) * 7  # sparse class ids, made dense on load
    save_dataset(graph, None, labels, tmp_path)
    headerless = tmp_path / "headerless"  # no %nodes line, labels out of node order
    headerless.mkdir()
    (headerless / "edges.tsv").write_text((tmp_path / "edges.tsv").read_text().partition("\n")[2])
    (headerless / "labels.tsv").write_text("".join(f"{i}\t{labels[i]}\n" for i in rng.permutation(n)))

    def refuse(text):
        raise AssertionError("the line grammar read a file the whole-text route takes")
    monkeypatch.setattr(graphs, "content_lines", refuse)
    monkeypatch.setattr(datasets, "content_lines", refuse)
    for root in (tmp_path, headerless):
        bundle = load_dataset(root)
        assert bundle.graph == graph
        assert np.array_equal(bundle.labels, labels // 7) and bundle.n_classes == 4
    units = from_edge_list(np.stack(graph.to_scipy().nonzero(), axis=1), n)
    assert load_dataset(tmp_path, dedup=True).graph == units
