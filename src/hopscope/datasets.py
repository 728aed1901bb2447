"""Loading dataset directories and writing CSV artifacts.

A dataset directory holds plain text files:

* ``edges.tsv`` — the edge-list format of :mod:`hopscope.graphs`
  (``src<TAB>dst`` lines, ``#`` comments, optional ``%nodes N`` header);
* ``labels.tsv`` — one ``node<TAB>class`` line per node;
* ``features.csv`` — optional; one ``node,v1,v2,...`` row per node.
  When absent the bundle is tagged as uniform-feature.

Node and class ids may be arbitrary non-negative integers; the loader
remaps both to dense ranges. All CSV output uses UTF-8, ``.`` decimals,
a header row, deterministic row order, and 12 significant digits for
reals, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DatasetError, InputError
from .graphs import SparseCountMatrix, _plain, content_lines, from_edge_list, parse_edge_pairs
from .normalization import WeightedAdjacency

__all__ = [
    "DATA_DIR_ENV",
    "DatasetBundle",
    "DatasetStats",
    "dataset_stats",
    "load_dataset",
    "resolve_dataset_dir",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_sweep_csv",
    "save_dataset",
    "fmt_real",
]

DATA_DIR_ENV = "HOPSCOPE_DATA_DIR"
_WRITE_BLOCK = 1 << 16  # edge lines formatted per write in save_dataset


def fmt_real(x: float) -> str:
    """12-significant-digit decimal rendering used by every CSV writer."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class DatasetStats:
    n_nodes: int
    n_edges: int
    n_classes: int
    pct_no_in: float
    pct_no_out: float
    class_sizes: tuple[int, ...]


@dataclass(frozen=True)
class DatasetBundle:
    graph: SparseCountMatrix
    features: np.ndarray | None  # None means uniform (all-ones) features
    labels: np.ndarray
    name: str
    n_classes: int
    stats: DatasetStats

    def __post_init__(self):
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)


def dataset_stats(graph: SparseCountMatrix, labels: np.ndarray) -> DatasetStats:
    """Recompute the summary statistics from in-memory data."""
    m = graph.to_scipy()
    out_deg = np.asarray(m.sum(axis=1)).ravel()
    in_deg = np.asarray(m.sum(axis=0)).ravel()
    n = graph.n_rows
    counts = np.bincount(labels)
    return DatasetStats(
        n_nodes=n,
        n_edges=int(graph.values.sum()),
        n_classes=int(labels.max()) + 1 if len(labels) else 0,
        pct_no_in=100.0 * float(np.count_nonzero(in_deg == 0)) / n if n else 0.0,
        pct_no_out=100.0 * float(np.count_nonzero(out_deg == 0)) / n if n else 0.0,
        class_sizes=tuple(int(c) for c in counts),
    )


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"missing or unreadable file: {path}") from exc


def _parse_edges(path: Path) -> tuple[np.ndarray, int | None]:
    """The ``(m, 2)`` int64 endpoint array of an edge-list file and its ``%nodes`` count."""
    try:
        pairs, declared = parse_edge_pairs(_read_text(path), where=f"{path}:")
    except InputError as exc:
        raise DatasetError(str(exc)) from exc
    try:
        edges = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    except OverflowError as exc:
        raise DatasetError(f"{path}: node id outside the 64-bit integer range") from exc
    return edges.reshape(-1, 2), declared


def _plain_real(token: str) -> bool:
    """ASCII without ``_``: there ``float()`` reads no digit separator and no non-ASCII digit."""
    return token.isascii() and "_" not in token


def _node_rows(path: Path, sep: str | None, remap: dict[int, int] | None, n: int, kind: type,
               width: int | None) -> list[list]:
    """The ``kind`` values of each node, in node order, from a file of ``node<sep>v1<sep>...`` lines.

    Every node needs exactly one line, with ``width`` values, or as many as the first line
    when None. Node ids (and ``int`` values) take the edge-list grammar ``-?[0-9]+``.
    """
    fname, text = path.name, _read_text(path)
    strict = not _plain(text)  # only such texts pay for a check per line
    ok = _plain if kind is int else _plain_real
    what = "integer" if kind is int else "numeric"
    rows: dict[int, list] = {}
    for lineno, line in content_lines(text):
        token, *fields = line.split(sep)
        try:
            if not fields or len(fields) != (width or len(fields)) or strict and not (
                _plain(token) and all(map(ok, fields))
            ):
                raise ValueError(line)
            node, values = int(token), list(map(kind, fields))
        except ValueError:
            raise DatasetError(
                f"{fname}:{lineno}: expected an integer node id and {width or 'some'} {what} value(s), got {line!r}"
            ) from None
        width = len(values)
        if not ((0 <= node < n) if remap is None else node in remap):
            raise DatasetError(f"{fname}:{lineno}: unknown node {node}")
        node = node if remap is None else remap[node]
        if node in rows:
            raise DatasetError(f"{fname}:{lineno}: duplicate line for node {node}")
        rows[node] = values
    if len(rows) < n:
        raise DatasetError(f"{fname}: no line for node(s) {[i for i in range(n) if i not in rows][:5]}")
    return [rows[i] for i in range(n)]


def load_dataset(dir_path: str | os.PathLike, dedup: bool = False) -> DatasetBundle:
    """Load a dataset directory into a validated bundle.

    With a ``%nodes N`` header the edge ids must already be dense below
    N (isolated nodes allowed); otherwise the sorted distinct endpoint
    ids are remapped to 0..n-1. Every node needs exactly one label;
    features, when present, need exactly one row per node.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise DatasetError(f"dataset directory not found: {root}")
    edges, declared = _parse_edges(root / "edges.tsv")
    if dedup:
        edges = np.unique(edges, axis=0)

    if declared is not None:
        n = declared
        if len(edges) and edges.max() >= n:
            raise DatasetError(f"edge endpoint exceeds declared %nodes {n}")
        remap = None
    else:
        ids, edges = np.unique(edges, return_inverse=True)
        n = len(ids)
        remap = dict(zip(ids.tolist(), range(n)))
        edges = edges.reshape(-1, 2)
    graph = from_edge_list(edges, n)

    raw_labels = [c for (c,) in _node_rows(root / "labels.tsv", None, remap, n, int, 1)]
    class_ids = sorted(set(raw_labels))
    class_map = {c: i for i, c in enumerate(class_ids)}
    labels = np.array([class_map[c] for c in raw_labels], dtype=np.int64)

    fpath = root / "features.csv"
    features = np.array(_node_rows(fpath, ",", remap, n, float, None)) if fpath.exists() else None

    return DatasetBundle(
        graph=graph,
        features=features,
        labels=labels,
        name=root.name,
        n_classes=len(class_ids),
        stats=dataset_stats(graph, labels),
    )


def resolve_dataset_dir(name_or_path: str) -> Path:
    """Interpret a dataset argument as a path, else under $HOPSCOPE_DATA_DIR."""
    p = Path(name_or_path)
    if p.is_dir():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = Path(root) / name_or_path
        if candidate.is_dir():
            return candidate
    raise DatasetError(f"dataset not found: {name_or_path!r} (also tried ${DATA_DIR_ENV})")


# ---------------------------------------------------------------------------
# artifact writers


def save_matrix_csv(m, path: str | os.PathLike):
    """Write a matrix as a dense CSV with a c0..c{m-1} header row.

    Integer matrices round-trip exactly; real values carry 12
    significant digits.
    """
    if isinstance(m, SparseCountMatrix):
        dense = m.to_dense()
        integral = True
    elif isinstance(m, WeightedAdjacency):
        dense = m.to_dense()
        integral = False
    else:
        dense = np.asarray(m)
        integral = np.issubdtype(dense.dtype, np.integer)
    lines = ["," .join(f"c{j}" for j in range(dense.shape[1]))]
    for row in dense:
        if integral:
            lines.append(",".join(str(int(v)) for v in row))
        else:
            lines.append(",".join(fmt_real(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise InputError(f"empty matrix file {path}")
    data = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return np.array(data, dtype=np.float64)


def save_sweep_csv(rows, path: str | os.PathLike):
    """Write sweep results; an empty sweep still gets the header row."""
    lines = ["arch,k,norm,propagation,acc_mean,acc_std,density,failures"]
    for r in rows:
        lines.append(
            f"{r.arch},{r.k},{r.norm},{r.propagation},"
            f"{fmt_real(r.acc_mean)},{fmt_real(r.acc_std)},{fmt_real(r.density)},{r.failures}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dataset(graph: SparseCountMatrix, features: np.ndarray | None, labels, out_dir: str | os.PathLike):
    """Write a dataset directory in the loadable on-disk format."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # One line per unit of multiplicity, in row-major order of the entries,
    # formatted a block at a time so the text never sits in memory whole.
    src = np.repeat(graph.row_ids(), graph.values)
    dst = np.repeat(graph.col_indices, graph.values)
    with open(out / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {graph.n_rows}\n")
        for lo in range(0, len(src), _WRITE_BLOCK):
            block = zip(src[lo:lo + _WRITE_BLOCK].tolist(), dst[lo:lo + _WRITE_BLOCK].tolist())
            fh.write("".join([f"{s}\t{d}\n" for s, d in block]))
    labels = np.asarray(labels, dtype=np.int64)
    (out / "labels.tsv").write_text(
        "\n".join(f"{i}\t{int(c)}" for i, c in enumerate(labels)) + "\n", encoding="utf-8"
    )
    if features is not None:
        rows = [
            str(i) + "," + ",".join(fmt_real(v) for v in row) for i, row in enumerate(np.asarray(features))
        ]
        (out / "features.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
