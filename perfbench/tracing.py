"""Outside-in layer tracing for kmse.

The tracer replaces each public layer function with a timing wrapper at every
module attribute that binds it (``kmse.linalg.sym_eigendecompose`` is also
bound as ``kmse.kernels.sym_eigendecompose`` and
``kmse.selection.sym_eigendecompose``), so calls made inside the package are
seen as well. Nothing under ``src/`` is edited, and ``uninstall`` puts the
original functions back.

A span's self time is its duration minus the durations of the spans it
called. Spans are kept in memory and written out by ``dump``.

With ``KMSE_THREADS`` above 1 the replication harness runs fits on worker
threads. A span that opens on a thread with no open span of its own is made
a child of the innermost span open on the operation's thread at that moment
(the ``risk_estimate`` harness span), so no span is left without a parent.
Concurrent children then add up to more than their parent's wall time: self
times are summed over threads and a parent's self time can be negative.
``threads`` counts the threads spans were seen on, so such runs can be told
apart.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> functions it covers, as "module.attribute" of the defining module
LAYERS = {
    "synthetic.draw_params": ("kmse.synthetic.draw_mixture_params",
                              "kmse.synthetic.effective_components"),
    "synthetic.sample": ("kmse.synthetic.sample_mixture",),
    "risk.truth": ("kmse.risk.mixture_mean_inners", "kmse.risk.mixture_mean_sq_norm"),
    "risk.harness": ("kmse.risk.risk_estimate",),
    "risk.fit": ("kmse.risk.fit_weights",),
    "selection.loocv": ("kmse.selection.loocv_select_lambda",
                        "kmse.selection.loocv_select_iterations"),
    "selection.gcv": ("kmse.selection.gcv_select_tsvd",),
    "linalg.eigh": ("kmse.linalg.sym_eigendecompose",),
    "linalg.spd": ("kmse.linalg.spd_factor",),
    "kernels.gram": ("kmse.kernels.gram_matrix",),
    "kernels.normalize": ("kmse.kernels.normalize_gram",),
    "kernels.median": ("kmse.kernels.median_heuristic_bandwidth",),
    "estimators.apply": (
        "kmse.estimators.empirical_kme_weights",
        "kmse.estimators.skmse_weights",
        "kmse.estimators.spectral_weights",
        "kmse.estimators.landweber_path",
        "kmse.estimators.nu_method_path",
        "kmse.estimators.landweber_weights",
        "kmse.estimators.nu_method_weights",
        "kmse.estimators.iterated_tikhonov_weights",
        "kmse.estimators.tsvd_weights",
    ),
    "data.load_csv": ("kmse.data.load_csv",),
}
ROOT_SPAN = "cli"


def _fit_key(config, *args, **kwargs) -> str:
    return config.name


def _matrix_dim(matrix, *args, **kwargs) -> int:
    return int(getattr(matrix, "values", matrix).shape[0])


# spans split by an argument, and spans that also count dim^3 of their input
SPAN_KEYS = {"risk.fit": _fit_key}
SPAN_SIZES = {"linalg.eigh": _matrix_dim}


class Tracer:
    """Collects spans, per-name call counts, inclusive and self times."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.cubes: Counter = Counter()
        self.spans: list[tuple] = []
        self.op_id = ""
        self.threads: set[int] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list = []
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:  # a worker thread: nest under the operation's open span
                parent = self._root_stack[-1] if self._root_stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            elapsed = end - start
            with self._lock:
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.threads.add(threading.get_ident())
                self.spans.append(
                    (frame[0], parent[0] if parent else None, self.op_id, name, start, end)
                )

    def root(self, op_id: str, fn, *args):
        """Run one operation as the root span that layer spans nest under."""
        self.op_id = op_id
        self._root_stack = self._stack()
        return self.call(ROOT_SPAN, fn, args, {})

    def _wrapper(self, name: str, fn):
        key = SPAN_KEYS.get(name)
        size = SPAN_SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if key is None else f"{name}.{key(*args, **kwargs)}"
            if size is not None:
                cube = size(*args, **kwargs) ** 3
                with self._lock:
                    self.cubes[label] += cube
            return self.call(label, fn, args, kwargs)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kmse" or n.startswith("kmse.")]
        for name, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrapper(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            self._patched.append((module, binding, original))

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
