"""Temporal interaction data: the interchange format and converters.

The canonical on-disk form is a UTF-8, LF-terminated CSV with header
``period,source,target,count``: one endorsement batch per row, counts
summed over duplicate (period, source, target) triples.  Node labels are
restricted to ``[A-Za-z0-9_.-]+``.  Periods sort numerically when every
label parses as a number, lexicographically otherwise.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace

import numpy as np

from .core import EndorsementState, ModelParams
from .errors import DomainError, FormatError
from .sim import _steps

LABEL_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
HEADER = ("period", "source", "target", "count")


@dataclass(frozen=True)
class InteractionSequence:
    """Observed endorsement counts, one matrix per period.

    ``deltas[t][i, j]`` counts endorsements i -> j during period t.  ``a0``
    is an optional warm-start state matrix (weights remembered before the
    first period); fitting consumes the first period as initialization when
    it is absent.
    """

    deltas: tuple
    node_labels: tuple
    period_labels: tuple
    a0: np.ndarray | None = None

    def __post_init__(self):
        if len(self.deltas) < 1:
            raise DomainError("need at least one period")
        mats = []
        n = len(self.node_labels)
        if n < 2:
            raise DomainError("need at least 2 nodes")
        for t, d in enumerate(self.deltas):
            d = np.asarray(d, dtype=float)
            if d.shape != (n, n):
                raise DomainError(f"period {t}: shape {d.shape} does not match {n} nodes")
            if not np.all(np.isfinite(d)) or np.any(d < 0):
                raise DomainError(f"period {t}: counts must be finite and nonnegative")
            d = d.copy()
            d.setflags(write=False)
            mats.append(d)
        object.__setattr__(self, "deltas", tuple(mats))
        object.__setattr__(self, "node_labels", tuple(str(x) for x in self.node_labels))
        if len(self.period_labels) != len(mats):
            raise DomainError("one period label per delta matrix")
        object.__setattr__(self, "period_labels", tuple(self.period_labels))
        if self.a0 is not None:
            a0 = np.asarray(self.a0, dtype=float)
            if a0.shape != (n, n):
                raise DomainError("a0 shape does not match node count")
            if not np.all(np.isfinite(a0)) or np.any(a0 < 0):
                raise DomainError("a0 must be finite and nonnegative")
            a0 = a0.copy()
            a0.setflags(write=False)
            object.__setattr__(self, "a0", a0)

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @property
    def t_len(self) -> int:
        return len(self.deltas)

    @property
    def m_t(self) -> np.ndarray:
        """Total endorsements per period."""
        return np.array([d.sum() for d in self.deltas])

    @property
    def m_bar(self) -> float:
        """Mean endorsements per period; the m used for critical values."""
        return float(self.m_t.mean())

    def with_a0(self, a0) -> "InteractionSequence":
        return replace(self, a0=a0)


def _period_keys(labels):
    """Numeric sort keys when every label parses as a number, else strings."""
    try:
        return [float(x) for x in labels]
    except (TypeError, ValueError):
        return [str(x) for x in labels]


def load_edge_list(path) -> InteractionSequence:
    """Read the interchange CSV into an InteractionSequence.

    Duplicate (period, source, target) rows are summed.  Errors carry the
    1-based line number of the offending row.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("empty file, expected header period,source,target,count")
        if tuple(h.strip() for h in header) != HEADER:
            raise FormatError(
                f"expected header period,source,target,count, got {','.join(header)}",
                line=1,
            )
        counts: dict = {}
        nodes: set = set()
        for lineno, row in enumerate(reader, start=2):
            if row == []:
                continue
            if len(row) != 4:
                raise FormatError(f"expected 4 fields, got {len(row)}", line=lineno)
            period, src, dst, cnt = (f.strip() for f in row)
            if not period:
                raise FormatError("empty period label", line=lineno)
            for label in (src, dst):
                if not LABEL_RE.match(label):
                    raise FormatError(f"bad node label {label!r}", line=lineno)
            try:
                c = int(cnt)
            except ValueError:
                raise FormatError(f"count must be an integer, got {cnt!r}", line=lineno)
            if c < 1:
                raise DomainError(f"line {lineno}: count must be >= 1, got {c}")
            nodes.add(src)
            nodes.add(dst)
            counts[(period, src, dst)] = counts.get((period, src, dst), 0) + c
    if not counts:
        raise FormatError("no interactions")
    node_labels = tuple(sorted(nodes))
    index = {lab: i for i, lab in enumerate(node_labels)}
    periods = sorted({p for p, _, _ in counts}, key=lambda p: _period_keys([p])[0])
    n = len(node_labels)
    deltas = [np.zeros((n, n)) for _ in periods]
    pos = {p: t for t, p in enumerate(periods)}
    for (p, s, d), c in counts.items():
        deltas[pos[p]][index[s], index[d]] += c
    return InteractionSequence(
        deltas=tuple(deltas), node_labels=node_labels, period_labels=tuple(periods)
    )


def save_edge_list(seq: InteractionSequence, path) -> None:
    """Write the interchange CSV (LF endings, zero cells omitted)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        for t, period in enumerate(seq.period_labels):
            d = seq.deltas[t]
            for i, j in zip(*np.nonzero(d)):
                c = d[i, j]
                if abs(c - round(c)) > 1e-9:
                    raise DomainError(
                        f"period {period}: count at ({i},{j}) is not an integer"
                    )
                fh.write(
                    f"{period},{seq.node_labels[i]},{seq.node_labels[j]},{int(round(c))}\n"
                )


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
    is <= k.
    """
    mats = [np.asarray(r) for r in rank_matrices]
    if not mats:
        raise DomainError("need at least one ranking period")
    n = mats[0].shape[0]
    if k < 1 or k > n - 1:
        raise DomainError(f"k must lie in [1, {n - 1}]")
    expected = set(range(1, n))
    deltas = []
    for t, r in enumerate(mats):
        if r.shape != (n, n):
            raise DomainError(f"period {t}: ranking matrix shape {r.shape} != ({n},{n})")
        d = np.zeros((n, n))
        for i in range(n):
            row = [int(r[i, j]) for j in range(n) if j != i]
            if set(row) != expected:
                raise FormatError(
                    f"period {t}, ranker {i}: row is not a permutation of 1..{n - 1}"
                )
            for j in range(n):
                if j != i and r[i, j] <= k:
                    d[i, j] = 1.0
        deltas.append(d)
    if node_labels is None:
        width = len(str(n - 1))
        node_labels = tuple(f"v{idx:0{width}d}" for idx in range(n))
    if period_labels is None:
        period_labels = tuple(range(len(deltas)))
    return InteractionSequence(
        deltas=tuple(deltas), node_labels=tuple(node_labels), period_labels=tuple(period_labels)
    )


def _window_indices(seq: InteractionSequence, window) -> list[int]:
    if window is None:
        return list(range(seq.t_len))
    lo, hi = window
    keys = _period_keys(seq.period_labels)
    lo_k, hi_k = _period_keys([lo, hi])
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
    if count < 2 or count > seq.n:
        raise DomainError(f"count must lie in [2, {seq.n}]")
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


def simulate_sequence(
    params: ModelParams,
    a0: np.ndarray,
    periods: int,
    node_labels=None,
    period_labels=None,
) -> InteractionSequence:
    """Generate an InteractionSequence from the model itself.

    Uses the same (seed, t) per-step generators as the trajectory engine,
    so period t here equals step t of a simulation run with the same
    parameters.  The returned sequence carries a0, making likelihood
    evaluations exact rather than first-period initialized.
    """
    if periods < 1:
        raise DomainError("periods must be >= 1")
    state = EndorsementState(a=np.asarray(a0, dtype=float))
    n = state.n
    deltas = [delta for _, _, delta, _ in _steps(params, state, periods)]
    if node_labels is None:
        width = len(str(n - 1))
        node_labels = tuple(f"v{idx:0{width}d}" for idx in range(n))
    if period_labels is None:
        period_labels = tuple(range(periods))
    return InteractionSequence(
        deltas=tuple(deltas),
        node_labels=tuple(node_labels),
        period_labels=tuple(period_labels),
        a0=np.asarray(a0, dtype=float),
    )
