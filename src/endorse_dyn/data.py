"""Temporal interaction data: the interchange format and converters.

The canonical on-disk form is a UTF-8, LF-terminated CSV with header
``period,source,target,count``: one endorsement batch per row, counts
summed over duplicate (period, source, target) triples.  Node labels are
restricted to ``[A-Za-z0-9_.-]+``.  Periods sort numerically when every
label parses as a number other than NaN, lexicographically otherwise; the
keys are computed over all labels at once, and labels with equal
numeric keys (``1`` and ``1.0``) break ties lexicographically.  Ranking
files (``period,source,target,rank``) are read by the same rules.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .core import EXACT_MAX, ModelParams, check_count, check_matrix, check_n
from .errors import DomainError, FormatError
from .sim import _initial, _steps

LABEL_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
HEADER = ("period", "source", "target", "count")


@dataclass(frozen=True)
class InteractionSequence:
    """Observed endorsement counts, one matrix per period.

    ``deltas[t][i, j]`` counts endorsements i -> j during period t.  ``a0``
    is an optional warm-start state matrix (weights remembered before the
    first period); fitting consumes the first period as initialization when
    it is absent.  Node labels are distinct, and so are period labels
    compared as text, as the interchange format writes them.
    """

    deltas: tuple
    node_labels: tuple
    period_labels: tuple
    a0: np.ndarray | None = None

    def __post_init__(self):
        if len(self.deltas) < 1:
            raise DomainError("need at least one period")
        n = len(self.node_labels)
        check_n(n)

        def frozen(d, name):  # a read-only n x n copy
            d = check_matrix(d, name).copy()
            if d.shape != (n, n):
                raise DomainError(f"{name}: shape {d.shape} does not match {n} nodes")
            d.setflags(write=False)
            return d

        mats = tuple(frozen(d, f"period {t}") for t, d in enumerate(self.deltas))
        object.__setattr__(self, "deltas", mats)
        object.__setattr__(self, "node_labels", tuple(str(x) for x in self.node_labels))
        if len(self.period_labels) != len(mats):
            raise DomainError("one period label per delta matrix")
        object.__setattr__(self, "period_labels", tuple(self.period_labels))
        for kind, labels in (("node", self.node_labels),
                             ("period", [str(p) for p in self.period_labels])):
            repeated = [x for x, c in Counter(labels).items() if c > 1]
            if repeated:
                raise DomainError(f"{kind} label {repeated[0]!r} repeats")
        if self.a0 is not None:
            object.__setattr__(self, "a0", frozen(self.a0, "a0"))

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @property
    def t_len(self) -> int:
        return len(self.deltas)

    @property
    def m_bar(self) -> float:
        """Mean endorsements over the used periods; the m used for critical values."""
        _, used = self.used_periods()
        return float(np.mean([d.sum() for d in used]))

    def used_periods(self):
        """Initial state and the periods entering the likelihood.

        A warm start (a0) covers every period; otherwise the first period
        is consumed as A(0) and excluded.
        """
        if self.a0 is not None:
            return np.asarray(self.a0, dtype=float), self.deltas
        if self.t_len < 2:
            raise DomainError("need a0 or at least 2 periods")
        return np.asarray(self.deltas[0], dtype=float), self.deltas[1:]

    def with_a0(self, a0) -> "InteractionSequence":
        return replace(self, a0=a0)


def _period_keys(labels):
    """Numeric sort keys when every label parses as a number other than NaN, else strings."""
    try:
        keys = [float(x) for x in labels]
        if not np.isnan(keys).any():
            return keys
    except (TypeError, ValueError):
        pass
    return [str(x) for x in labels]


def _sorted_periods(labels) -> tuple:
    """Period labels in interchange order: keys over all labels at once, ties by label."""
    labels = list(labels)
    return tuple(p for _, p in sorted(zip(_period_keys(labels), labels)))


def _read_rows(path, value_name):
    """Checked rows ``(line, period, source, target, value)`` of a 4-column CSV.

    The header must be ``period,source,target,<value_name>``; blank rows are
    skipped.  Every error carries the 1-based line number of its row.
    """
    header = ("period", "source", "target", value_name)
    with open(path, encoding="utf-8-sig", newline="") as fh:  # skips a byte-order mark
        reader = csv.reader(fh)
        try:
            numbered = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # an oversized field, or a NUL byte before Python 3.11
            raise FormatError(str(exc), line=reader.line_num) from None
    if not numbered:
        raise FormatError(f"empty file, expected header {','.join(header)}")
    first = numbered[0][1]
    if tuple(h.strip() for h in first) != header:
        raise FormatError(f"expected header {','.join(header)}, got {','.join(first)}", line=1)
    rows = []
    for line, row in numbered[1:]:
        if row == []:
            continue
        if len(row) != 4:
            raise FormatError(f"expected 4 fields, got {len(row)}", line=line)
        period, src, dst, value = (f.strip() for f in row)
        if not period:
            raise FormatError("empty period label", line=line)
        for label in (src, dst):
            if not LABEL_RE.match(label):
                raise FormatError(f"bad node label {label!r}", line=line)
        # ASCII decimal digits, as int() alone also reads 1_0 and Unicode
        # digits; 2**53 has 16 of them, and int() refuses over 4300
        if not re.fullmatch(r"[+-]?[0-9]+", value):
            raise FormatError(f"{value_name} must be an integer, got {value!r}", line=line)
        if len(value.lstrip("+-0")) > 16 or abs(int(value)) > EXACT_MAX:
            raise FormatError(f"{value_name} is above 2**53 in size", line=line)
        rows.append((line, period, src, dst, int(value)))
    if not rows:
        raise FormatError("no interactions")
    return rows


def _write_csv(path, header, rows) -> None:
    """Write every CSV of the package in its one dialect: UTF-8, LF line ends,
    the `header` line (none when it is None), then one line per row.  The
    header and each row are a string or a sequence of comma-joined fields."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows if header is None else chain([header], rows):
            fh.write((row if isinstance(row, str) else ",".join(row)) + "\n")


def _tabulate(cells: dict, dtype):
    """``{(period, source, target): value}`` -> (matrices, node labels, period labels).

    Nodes are the sorted label set; one n x n matrix per period, in
    interchange period order.
    """
    nodes = tuple(sorted({s for _, s, _ in cells} | {d for _, _, d in cells}))
    periods = _sorted_periods({p for p, _, _ in cells})
    index = {lab: i for i, lab in enumerate(nodes)}
    pos = {p: t for t, p in enumerate(periods)}
    mats = np.zeros((len(periods), len(nodes), len(nodes)), dtype=dtype)
    for (p, s, d), value in cells.items():
        mats[pos[p], index[s], index[d]] = value
    return tuple(mats), nodes, periods


def load_edge_list(path) -> InteractionSequence:
    """Read the interchange CSV into an InteractionSequence.

    Duplicate (period, source, target) rows are summed, to at most 2**53.
    Errors carry the 1-based line number of the offending row.
    """
    counts: dict = {}
    for line, period, src, dst, c in _read_rows(path, "count"):
        if c < 1:
            raise DomainError(f"line {line}: count must be >= 1, got {c}")
        total = counts.get((period, src, dst), 0) + c
        if total > EXACT_MAX:
            raise FormatError(f"summed count for {src}->{dst} is above 2**53", line=line)
        counts[(period, src, dst)] = total
    deltas, nodes, periods = _tabulate(counts, float)
    return InteractionSequence(deltas=deltas, node_labels=nodes, period_labels=periods)


def load_rankings(path):
    """Read a ``period,source,target,rank`` CSV into per-period rank matrices.

    Returns ``(matrices, node_labels, period_labels)`` in the layout
    ``convert_rankings_topk`` takes.  Labels and period order follow the
    interchange format; a repeated (period, source, target) row is a
    FormatError carrying its line number.
    """
    ranks: dict = {}
    for line, period, src, dst, r in _read_rows(path, "rank"):
        if (period, src, dst) in ranks:
            raise FormatError(f"duplicate ranking for {src}->{dst}", line=line)
        ranks[(period, src, dst)] = r
    return _tabulate(ranks, int)


def save_edge_list(seq: InteractionSequence, path) -> None:
    """Write the interchange CSV (LF endings, zero cells omitted).

    Only what `load_edge_list` reads back as the same labelled sequence is
    written.  Node labels must match LABEL_RE; period labels must read
    back as themselves (no comma, quote, NUL, line break or edge
    whitespace) and stand in interchange order.  Otherwise DomainError
    names the label before the file is opened.  The file's directory is
    made, if missing, only once every check has passed.  The format cannot
    carry an empty period, a node without edges or a0: a reload drops them.
    """
    for label in seq.node_labels:
        if not LABEL_RE.match(label):
            raise DomainError(f"node label {label!r} is malformed")
    periods = [str(p) for p in seq.period_labels]
    for p in periods:
        if not p or p != p.strip() or re.search(r'[,"\x00\r\n]', p):
            raise DomainError(f"period label {p!r} would not read back as itself")
    # a reload sorts only the periods with endorsements, so both orders must hold
    kept = [p for p, d in zip(periods, seq.deltas) if d.any()]
    for labels in (periods, kept):
        for p, q in zip(labels, _sorted_periods(labels)):
            if p != q:
                raise DomainError(f"period label {p!r} is out of interchange order")
    rows = []
    for period, d in zip(periods, seq.deltas):
        for i, j in zip(*np.nonzero(d)):
            c = d[i, j]
            if abs(c - round(c)) > 1e-9:
                raise DomainError(f"period {period}: count at ({i},{j}) is not an integer")
            rows.append(f"{period},{seq.node_labels[i]},{seq.node_labels[j]},{int(round(c))}")
    if np.count_nonzero(sum(d.sum(axis=0) + d.sum(axis=1) for d in seq.deltas)) < 2:
        raise DomainError("endorsements touch fewer than 2 nodes; a reload needs 2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, HEADER, rows)


def convert_rankings_topk(
    rank_matrices,
    k: int = 5,
    node_labels=None,
    period_labels=None,
) -> InteractionSequence:
    """Turn per-period preference rankings into top-k endorsements.

    ``rank_matrices[t][i, j]`` is the rank member i assigns to member j
    (1 = most preferred); each row must rank all other members exactly once
    (the diagonal is ignored).  i endorses j with count 1 whenever the rank
    is <= k.  Errors name a period and a ranker by label when labels are
    given, and by index otherwise.
    """
    mats = [np.asarray(r) for r in rank_matrices]
    if not mats:
        raise DomainError("need at least one ranking period")
    n = mats[0].shape[0]
    check_count("k", k, 1, n - 1)

    def period(t):
        return f"period {t}" if period_labels is None else f"period {period_labels[t]!r}"

    def ranker(i):
        return f"ranker {i}" if node_labels is None else f"ranker {node_labels[i]!r}"

    off = ~np.eye(n, dtype=bool)
    deltas = []
    for t, r in enumerate(mats):
        if r.shape != (n, n):
            raise DomainError(f"{period(t)}: ranking matrix shape {r.shape} != ({n},{n})")
        # one rule: each ranker's ranks of the others sort to the integers 1..n-1
        bad = ~(np.sort(r[off].reshape(n, n - 1), axis=1) == np.arange(1, n)).all(axis=1)
        if bad.any():
            raise FormatError(f"{period(t)}, {ranker(int(np.argmax(bad)))}: row is not a "
                              f"permutation of 1..{n - 1}")
        deltas.append((off & (r <= k)).astype(float))
    return _labelled(deltas, node_labels, period_labels)


def _labelled(deltas, node_labels, period_labels, a0=None) -> InteractionSequence:
    """The sequence of `deltas`, with nodes v0, v1, ... and periods 0, 1, ...
    where the caller gives no labels."""
    n = len(deltas[0])
    if node_labels is None:
        width = len(str(n - 1))
        node_labels = tuple(f"v{idx:0{width}d}" for idx in range(n))
    if period_labels is None:
        period_labels = tuple(range(len(deltas)))
    return InteractionSequence(tuple(deltas), tuple(node_labels), tuple(period_labels), a0)


def _window_indices(seq: InteractionSequence, window) -> list[int]:
    if window is None:
        return list(range(seq.t_len))
    lo, hi = window
    *keys, lo_k, hi_k = _period_keys([*seq.period_labels, lo, hi])
    idx = [t for t, key in enumerate(keys) if lo_k <= key <= hi_k]
    if not idx:
        raise DomainError(f"window {window!r} selects no periods")
    return idx


def aggregate_counts(seq: InteractionSequence, window=None) -> np.ndarray:
    """Sum of the count matrices over a period window (all periods default).

    The usual warm-start construction: aggregate everything observed before
    the analysis window and pass the result as a0.
    """
    idx = _window_indices(seq, window)
    return np.sum([seq.deltas[t] for t in idx], axis=0)


def restrict_top_placers(
    seq: InteractionSequence, count: int, window=None
) -> InteractionSequence:
    """Keep the `count` nodes receiving the most endorsements from others.

    Ranking is by total endorsements received within the window, self
    loops excluded; ties at the cutoff break by label, lexicographically.
    When a window is given the output sequence is restricted to it.  Edges
    touching dropped nodes disappear; a0 (if any) is sub-selected.
    """
    check_count("count", count, 2, seq.n)
    idx = _window_indices(seq, window)
    received = np.zeros(seq.n)
    for t in idx:
        d = seq.deltas[t]
        received += d.sum(axis=0) - np.diag(d)
    order = sorted(range(seq.n), key=lambda i: (-received[i], seq.node_labels[i]))
    keep = sorted(order[:count])
    deltas = tuple(seq.deltas[t][np.ix_(keep, keep)] for t in idx)
    return InteractionSequence(
        deltas=deltas,
        node_labels=tuple(seq.node_labels[i] for i in keep),
        period_labels=tuple(seq.period_labels[t] for t in idx),
        a0=None if seq.a0 is None else seq.a0[np.ix_(keep, keep)],
    )


def simulate_sequence(params: ModelParams, a0: np.ndarray, periods: int) -> InteractionSequence:
    """Generate an InteractionSequence from the model itself.

    Uses the same (seed, t) per-step generators as the trajectory engine,
    so period t here equals step t of a simulation run with the same
    parameters.  The returned sequence carries a0, making likelihood
    evaluations exact rather than first-period initialized; its nodes are
    labelled v0, v1, ... and its periods 0, 1, ...
    """
    check_count("periods", periods, 1)
    a = _initial(a0)[None]
    deltas = [delta[0] for _, delta in _steps(params, a, periods, unit="period")]
    return _labelled(deltas, None, None, a0)
