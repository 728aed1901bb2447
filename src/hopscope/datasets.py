"""Every dataset hopscope uses: synthetic generators, dataset directories and CSV artifacts.

:func:`synthesize_dataset` draws the synthetic kinds of ``SYNTH_KINDS``,
desk-sized and deterministic: ``structure_only`` (labels from in-degree
mass), ``hybrid`` (a sparse long-path digraph with class-informative
features) and ``sparse_digraph_deep`` (a low-density digraph for very
deep stacks).

A dataset directory holds plain text files:

* ``edges.tsv`` — the edge-list format of :mod:`hopscope.graphs`
  (``src<TAB>dst`` lines, ``#`` comments, optional ``%nodes N`` header);
* ``labels.tsv`` — one ``node<TAB>class`` line per node;
* ``features.csv`` — optional; one ``node,v1,v2,...`` row per node.
  When absent the bundle is tagged as uniform-feature.

Node and class ids may be arbitrary integers; the loader remaps both
to dense ranges. ``edges.tsv`` (under at most an exact ``%nodes N``
first line) and ``labels.tsv`` are read a block of lines at a time by
numpy's C reader when they hold nothing but ASCII digits, ``-``, tabs,
spaces and newlines, tokens ``-?[0-9]+`` within int64, two on each
non-blank line, and, for the labels, each node exactly once.
Any other text goes through the line grammar, so an error still names
``file:line``. :func:`save_dataset` writes both files from byte
matrices built in numpy, a block of rows at a time. All CSV output uses
UTF-8, ``.`` decimals, a header row, deterministic row order, and 12
significant digits for reals, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError, InputError
from .graphs import (SparseCountMatrix, _exact_total, _float64_field, _index, _int64_field, _int_table, _labels,
                     _matvecs, _real, _token_int, content_lines, edge_array, from_edge_list)
from .models import uniform_features
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
# The synthetic kinds; a kind's generator is seeded with spawn key (its position + 1), so
# reordering them changes every synthetic dataset.
SYNTH_KINDS = ("structure_only", "hybrid", "sparse_digraph_deep")
_WRITE_BLOCK = 1 << 16  # lines formatted per write in save_dataset


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
        # a read-only copy, so the caller's array stays writeable
        object.__setattr__(self, "labels", _int64_field(_labels(self.labels, self.graph.n_rows), "labels"))


def dataset_stats(graph: SparseCountMatrix, labels: np.ndarray) -> DatasetStats:
    """Recompute the summary statistics from in-memory data."""
    n, labels = graph.n_rows, _labels(labels, graph.n_rows)
    has_in = np.bincount(graph.csr.indices, minlength=n) > 0  # counts are positive: an entry is an edge
    has_out = np.diff(graph.csr.indptr) > 0
    counts = np.bincount(labels)
    return DatasetStats(
        n_nodes=n,
        n_edges=_exact_total(graph.values),
        n_classes=int(labels.max()) + 1 if len(labels) else 0,
        pct_no_in=100.0 * float(n - np.count_nonzero(has_in)) / n if n else 0.0,
        pct_no_out=100.0 * float(n - np.count_nonzero(has_out)) / n if n else 0.0,
        class_sizes=tuple(int(c) for c in counts),
    )


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"missing or unreadable file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_edges(path: Path) -> tuple[np.ndarray, int | None]:
    """The ``(m, 2)`` int64 endpoint array of an edge-list file and its ``%nodes`` count."""
    try:
        return edge_array(_read_text(path), where=f"{path}:")
    except InputError as exc:
        raise DatasetError(str(exc)) from exc


def _plain_real(token: str) -> bool:
    """ASCII without ``_``: there ``float()`` reads no digit separator and no non-ASCII digit."""
    return token.isascii() and "_" not in token


def _node_rows(fname: str, text: str, sep: str | None, ids: np.ndarray | None, n: int, kind: type,
               width: int | None) -> list[list]:
    """The ``kind`` values of each node, in node order, from a text of ``node<sep>v1<sep>...`` lines.

    Every node needs exactly one line, with ``width`` values, or as many as the first line
    when None. Node ids (and ``int`` values) take the edge-list grammar ``-?[0-9]+`` within int64; with
    ``ids`` they are external ids, read through their position in that sorted array.
    """
    strict = kind is float and not _plain_real(text)  # only such texts pay for a check per value
    what = "integer" if kind is int else "numeric"
    remap = None if ids is None else dict(zip(ids.tolist(), range(n)))
    rows: dict[int, list] = {}
    for lineno, line in content_lines(text):
        token, *fields = line.split(sep)
        try:
            if not fields or len(fields) != (width or len(fields)) or strict and not all(map(_plain_real, fields)):
                raise ValueError(line)
            node, values = _token_int(token), list(map(_token_int if kind is int else float, fields))
        except ValueError:
            raise DatasetError(
                f"{fname}:{lineno}: expected an integer node id and {width or 'some'} {what} value(s), got {line!r}"
            ) from None
        except OverflowError:
            raise DatasetError(f"{fname}:{lineno}: integer outside the 64-bit range in {line!r}") from None
        if kind is float and not all(map(math.isfinite, values)):
            raise DatasetError(f"{fname}:{lineno}: non-finite value in {line!r}")
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


def _label_column(text: str, ids: np.ndarray | None, n: int) -> np.ndarray | None:
    """The class of each node, in node order, when ``text`` is plain ``node<TAB>class`` lines, one per node.

    None whenever :func:`_node_rows` has to look: an unusual text, or node ids
    that are not a permutation of the ``n`` nodes (through ``ids`` when given).
    """
    table = _int_table(text, 2)
    if table is None or len(table) != n:
        return None
    nodes = table[:, 0]
    if ids is not None:
        pos = np.minimum(np.searchsorted(ids, nodes), n - 1)
        nodes = np.where(ids[pos] == nodes, pos, -1)
    if n and (nodes.min() < 0 or nodes.max() >= n or np.bincount(nodes, minlength=n).max() > 1):
        return None
    classes = np.empty(n, dtype=np.int64)
    classes[nodes] = table[:, 1]
    return classes


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
    path = root / "edges.tsv"
    edges, declared = _parse_edges(path)
    if dedup:
        edges = np.unique(edges, axis=0)

    if declared is not None:
        n, ids = declared, None
        if len(edges) and (edges.min() < 0 or edges.max() >= n):
            pair = tuple(edges[((edges < 0) | (edges >= n)).any(axis=1)][0].tolist())
            raise DatasetError(f"{path}: edge endpoint outside declared %nodes {n}: {pair}")
    else:
        ids, edges = np.unique(edges, return_inverse=True)
        n = len(ids)
        edges = edges.reshape(-1, 2)
    graph = from_edge_list(edges, n)

    text = _read_text(root / "labels.tsv")
    raw_labels = _label_column(text, ids, n)
    if raw_labels is None:
        raw_labels = np.array([c for (c,) in _node_rows("labels.tsv", text, None, ids, n, int, 1)])
    class_ids, labels = np.unique(raw_labels, return_inverse=True)

    fpath = root / "features.csv"
    features = None
    if fpath.exists():
        features = np.array(_node_rows(fpath.name, _read_text(fpath), ",", ids, n, float, None))

    return DatasetBundle(graph=graph, features=features, labels=labels, name=root.name, n_classes=len(class_ids),
                         stats=dataset_stats(graph, labels))


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
    dense = m.to_dense() if isinstance(m, (SparseCountMatrix, WeightedAdjacency)) else np.asarray(m)
    integral = np.issubdtype(dense.dtype, np.integer)
    lines = ["," .join(f"c{j}" for j in range(dense.shape[1]))]
    for row in dense:
        if integral:
            lines.append(",".join(str(int(v)) for v in row))
        else:
            lines.append(",".join(fmt_real(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a :func:`save_matrix_csv` file: a header row, then rows of as many finite reals.

    Values take the ``features.csv`` grammar; a bad row raises :class:`InputError` naming ``path:line``.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").rstrip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    if not lines:
        raise InputError(f"empty matrix file {path}")
    width = len(lines[0].split(","))
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != width or not all(map(_plain_real, fields)):
                raise ValueError(line)
            data.append(list(map(float, fields)))
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected {width} real values, got {line!r}") from None
        if not all(map(math.isfinite, data[-1])):
            raise InputError(f"{path}:{lineno}: non-finite value in {line!r}")
    return np.array(data, dtype=np.float64).reshape(-1, width)


def save_sweep_csv(rows, path: str | os.PathLike):
    """Write sweep results; an empty sweep still gets the header row."""
    lines = ["arch,k,norm,propagation,acc_mean,acc_std,density,failures"]
    for r in rows:
        lines.append(f"{r.arch},{r.k},{r.norm},{r.propagation},"
                     f"{fmt_real(r.acc_mean)},{fmt_real(r.acc_std)},{fmt_real(r.density)},{r.failures}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _int_lines(*columns: np.ndarray) -> str:
    """The text ``f"{a}\\t{b}\\n"`` writes for each row of the int64 ``columns``, built in numpy.

    The rows are the rows of one byte matrix. A column takes a ``-`` place
    when one of its values is negative, one place per digit of its largest
    magnitude, and a place for the tab or newline after it. Its digits are
    written one place at a time from the right, by a floor division by 10
    of all its magnitudes (uint32 when they fit, else uint64, so ``-2**63``
    is exact). A 0 byte is a place a value does not use, a leading zero or
    a missing ``-``, and the text is the other bytes in order.
    """
    rows, fields = len(columns[0]), []
    for column in columns:
        column = np.asarray(column, dtype=np.int64)
        neg, mag = column < 0, column.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)  # modulo 2**64, so -2**63 has magnitude 2**63
        top = int(mag.max()) if rows else 0
        fields.append((neg if neg.any() else None, mag if top >> 32 else mag.astype(np.uint32), len(str(top))))
    out = np.zeros((rows, sum((neg is not None) + places + 1 for neg, _, places in fields)), dtype=np.uint8)
    at = 0
    for end, (neg, mag, places) in zip(b"\t" * (len(fields) - 1) + b"\n", fields):
        if neg is not None:
            out[neg, at] = ord("-")
            at += 1
        rest, digit, used = (np.empty_like(mag) for _ in range(3))
        at += places
        for place in range(at - 1, at - places - 1, -1):
            np.floor_divide(mag, 10, out=rest)
            np.subtract(mag, np.multiply(rest, 10, out=digit), out=digit)
            # a value's last digit is always written; a place left of its first digit stays 0
            digit += ord("0") if place == at - 1 else np.multiply(np.sign(mag, out=used), ord("0"), out=used)
            out[:, place] = digit
            mag, rest = rest, mag
        out[:, at] = end
        at += 1
    return out[out != 0].tobytes().decode("ascii")


def _write_lines(path: Path, head: str, *columns: np.ndarray):
    """Write ``head``, then the :func:`_int_lines` text of ``columns``, ``_WRITE_BLOCK`` rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for lo in range(0, len(columns[0]), _WRITE_BLOCK):
            fh.write(_int_lines(*(column[lo:lo + _WRITE_BLOCK] for column in columns)))


def save_dataset(graph: SparseCountMatrix, features: np.ndarray | None, labels, out_dir: str | os.PathLike):
    """Write a dataset directory in the loadable on-disk format; ``labels`` are any int64 class ids, one a node."""
    labels = _int64_field(labels, "labels")
    if labels.shape != (graph.n_rows,):
        raise InputError(f"labels must be one class id per node, shape ({graph.n_rows},), got {labels.shape}")
    features = None if features is None else _float64_field(features, "features")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # One line per unit of multiplicity, in row-major order of the entries,
    # formatted a block at a time so the text never sits in memory whole.
    m = graph.csr
    src = np.repeat(np.repeat(np.arange(graph.n_rows), np.diff(m.indptr)), m.data)
    _write_lines(out / "edges.tsv", f"%nodes {graph.n_rows}\n", src, np.repeat(m.indices, m.data))
    # without nodes the file still ends its one (empty) line
    _write_lines(out / "labels.tsv", "" if len(labels) else "\n", np.arange(len(labels)), labels)
    if features is not None:
        rows = [f"{i}," + ",".join(map(fmt_real, row)) for i, row in enumerate(features)]
        (out / "features.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# synthetic datasets


def synthesize_dataset(kind: str, n: int, seed: int, noise: float = 0.0, feature_signal: float = 1.0):
    """Deterministic desk-scale datasets: ``(graph, X, labels)``.

    ``structure_only`` — uniform features; 4 labels are quantile bins of
    an in-degree mass score (the total in-degree of a node's in-
    neighbors), so structure alone decides the class. ``noise``
    resamples that fraction of labels uniformly.

    ``hybrid`` — sparse long-path digraph whose 4 classes are contiguous
    rank bands, plus class-informative Gaussian features scaled by
    ``feature_signal``.

    ``sparse_digraph_deep`` — directed ring with sparse chords; the
    pattern of A^k never dies out, so very deep stacks stay non-trivial.
    """
    _index(n, "n", 50)
    if kind not in SYNTH_KINDS:
        raise InputError(f"unknown synthetic kind {kind!r}")
    _index(seed, "seed", 0)
    if not 0.0 <= _real(noise, "noise") <= 1.0:
        raise InputError(f"noise must be in [0, 1], got {noise}")
    if not np.isfinite(_real(feature_signal, "feature_signal")):
        raise InputError(f"feature_signal must be finite, got {feature_signal}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(SYNTH_KINDS.index(kind) + 1,)))
    if kind == "structure_only":
        return _synth_structure_only(n, rng, noise)
    if kind == "hybrid":
        return _synth_hybrid(n, rng, feature_signal)
    return _synth_deep(n, rng, feature_signal)


def _quantile_labels(score: np.ndarray, n_classes: int = 4) -> np.ndarray:
    qs = np.quantile(score, np.arange(1, n_classes) / n_classes)
    return np.searchsorted(qs, score, side="right").astype(np.int64)


def _synth_structure_only(n: int, rng: np.random.Generator, noise: float):
    """Labels are quantile bins of each node's aggregated in-degree mass.

    A tenth of the nodes are feeders with conspicuously high in-degree;
    every other node draws four in-edges, 0..3 of them from feeders, so
    the total in-degree of its in-neighborhood clusters into four well
    separated levels while its own in-degree stays flat. Two hub nodes
    give everyone at least one in- and one out-edge without perturbing
    the score (the out-hub has in-degree 1).
    """
    hub_in, hub_out = n - 2, n - 1
    regular = np.arange(n - 2)
    n_feed = max(4, n // 10)
    perm = rng.permutation(regular)
    feeders, nonfeeders = perm[:n_feed], perm[n_feed:]
    m = len(nonfeeders)
    top = max(0, n // 4 - n_feed - 2)  # feeders and hubs land in the top class
    rest = m - top
    base = rest // 3
    counts = [base + (1 if i < rest - 3 * base else 0) for i in range(3)] + [top]
    feeder_picks = np.concatenate([np.full(counts[c], c) for c in range(4)])
    feeder_picks = feeder_picks[rng.permutation(m)]

    edges = [(int(i), hub_in) for i in regular] + [(hub_out, int(i)) for i in regular]
    edges += [(hub_in, hub_out), (hub_out, hub_in)]
    for f in feeders:
        for _ in range(int(rng.integers(10, 15)) + 4):
            src = int(regular[rng.integers(0, len(regular))])
            if src != f:
                edges.append((src, int(f)))
    for i, fv in zip(nonfeeders, feeder_picks):
        for _ in range(int(fv)):
            edges.append((int(feeders[rng.integers(0, n_feed)]), int(i)))
        for _ in range(4 - int(fv)):
            src = int(nonfeeders[rng.integers(0, m)])
            if src != i:
                edges.append((src, int(i)))
    graph = from_edge_list(edges, n)
    msp = graph.csr.astype(np.float64)
    indeg = np.asarray(msp.sum(axis=0)).ravel()
    score = _matvecs(msp.T, indeg)  # total in-degree of each node's in-neighbors
    labels = _quantile_labels(score)
    if noise > 0:
        flip = rng.random(n) < noise
        labels = labels.copy()
        labels[flip] = rng.integers(0, 4, size=int(flip.sum()))
    return graph, uniform_features(n), labels


def _synth_hybrid(n: int, rng: np.random.Generator, feature_signal: float):
    """Sparse directed lattice whose k-step reach respects class stripes.

    Edges jump 50 positions (multiplicity 1-2) with occasional 250-jump
    chords; class stripes are 50 wide with period 200, so a length-k
    walk always lands a fixed number of stripes ahead: aggregated
    features stay class-informative at every k. Gaussian class means
    scaled by ``feature_signal`` supply the feature side of the task.
    n is rounded up to a multiple of 200.
    """
    n = max(200, ((n + 199) // 200) * 200)
    d = 12
    edges = []
    for i in range(n):
        for _ in range(int(rng.integers(1, 3))):
            edges.append((i, (i + 50) % n))
    for _ in range(n // 6):
        i = int(rng.integers(0, n))
        edges.append((i, (i + 250) % n))
    graph = from_edge_list(edges, n)
    labels = ((np.arange(n) // 50) % 4).astype(np.int64)
    mu = rng.standard_normal((4, d)) * feature_signal
    x = mu[labels] + rng.standard_normal((n, d))
    return graph, x, labels


def _synth_deep(n: int, rng: np.random.Generator, feature_signal: float):
    """Directed ring with long chords; class stripes of width 50.

    Every edge displaces a node by 25 positions modulo 200 (lattice
    steps jump 25, chords 225), and class stripes are 50 wide with
    period 200, so a length-L walk always lands (25 L mod 200)
    positions ahead: for any even depth that is a whole number of
    stripes, and a depth-L stack faces a consistent class permutation
    rather than blurred labels. The class signal is a single scalar
    feature so it survives stacks that squash multi-dimensional
    inputs. n is rounded up to a multiple of 200 so the stripes tile
    the ring exactly.
    """
    n = max(200, ((n + 199) // 200) * 200)
    edges = [(i, (i + 25) % n) for i in range(n)]
    for _ in range(n // 6):
        i = int(rng.integers(0, n))
        edges.append((i, (i + 225) % n))
    graph = from_edge_list(edges, n)
    labels = ((np.arange(n) // 50) % 4).astype(np.int64)
    x = (labels[:, None] + 1.0) * feature_signal + 0.15 * rng.standard_normal((n, 1))
    return graph, x, labels
