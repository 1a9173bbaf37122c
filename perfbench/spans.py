"""Span recorder for the traced run, installed from outside the package.

`Recorder.install` replaces each traced function with a timing wrapper in
every module namespace that holds it, so a name imported elsewhere
(``from .scores import score``) is traced at its call sites too.  Nothing
in the package is edited; `Recorder.uninstall` puts the originals back.

A span is (id, name, start, end, parent id, thread id, returned None).
Threads of `parallel_map` inherit the calling span as their parent, but
self time is computed per thread: a span's self time is its duration minus
the durations of its children on the same thread, so a pool's self time
is the time its caller spent waiting on the workers.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

# Functions traced, by layer (the package's module names).  Besides the
# functions the per-layer metrics name, the list holds the entry points that
# parent them (variance_sweep, two_group_equilibria, compare_scores), so
# self times are attributed to the right layer.
TRACED = {
    "scores": ("score", "root_degree_score", "pagerank_score", "springrank_score"),
    "choice": ("utility", "choice_probabilities", "sample_delta"),
    "core": ("step", "rank_vector"),
    "sim": ("run", "_step_rng", "variance_sweep"),
    "inference": ("compare_scores", "fit", "_rolled_scores", "_loglik_and_grad",
                  "_maximize_beta", "_standard_errors"),
    "stability": ("two_group_equilibria", "_newton_two_group", "_full_residual",
                  "_classify", "fixed_point_jacobian", "dprob_tensor"),
    "data": ("load_edge_list",),
    "parallel": ("parallel_map",),
}

PACKAGE = "endorse_dyn"
POOL = "parallel.parallel_map"


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.pool_items: list[tuple] = []  # (parallel_map span id, worker thread id)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(), out is None)
                )

        return traced

    def _pool_shim(self, pool_map):
        """parallel_map whose items run with the pool's span as parent."""

        def shim(fn, items, *args, **kwargs):
            parent = self._stack()[-1]

            def item(x):
                stack = self._stack()
                stack.append(parent)
                self.pool_items.append((parent, threading.get_ident()))
                try:
                    return fn(x)
                finally:
                    stack.pop()

            return pool_map(item, items, *args, **kwargs)

        return shim

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                span = f"{layer}.{fname}"
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.absent.append(span)
                    continue
                inner = self._pool_shim(original) if span == POOL else original
                wrapper = self.wrap(span, inner)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.pool_items = []


def summarize(spans, pool_items) -> dict:
    """Per span name: calls, busy_s, self_s, none_returns; pools: items, workers_max."""
    child_time: dict = defaultdict(float)
    by_id = {s[0]: s for s in spans}
    for sid, _, t0, t1, parent, tid, _ in spans:
        if parent is not None and parent in by_id and by_id[parent][5] == tid:
            child_time[parent] += t1 - t0
    stats: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                       "none_returns": 0})
    for sid, name, t0, t1, _, _, none in spans:
        st = stats[name]
        st["calls"] += 1
        st["busy_s"] += t1 - t0
        st["self_s"] += (t1 - t0) - child_time[sid]
        st["none_returns"] += int(none)
    workers: dict = defaultdict(set)
    for parent, tid in pool_items:
        workers[parent].add(tid)
    if POOL in stats:
        stats[POOL]["items"] = len(pool_items)
        stats[POOL]["workers_max"] = max((len(w) for w in workers.values()), default=0)
    return {name: dict(st) for name, st in stats.items()}
