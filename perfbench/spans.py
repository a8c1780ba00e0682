"""Span tracing around the public functions of the six semiae modules.

The program carries no tracing of its own.  :class:`Tracer` replaces each
public function named in ``SPANS`` with a wrapper that records a span
``[name, start, end, parent]`` in memory, in every semiae module that holds
a reference to that function (``trainer`` calls ``loss_and_gradients``
through its own imported name, the CLI calls ``split`` through its own, and
so on).  :meth:`Tracer.restore` puts the originals back.

A span's self time is its duration minus the durations of its direct
children.  :func:`layer_stats` sums self time, total time and call count per
span name.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("semiae", "semiae.dataset", "semiae.model", "semiae.optim",
           "semiae.trainer", "semiae.evaluation", "semiae.cli")

# span name -> (module that defines the function, function names)
SPANS = {
    "dataset.parse": ("semiae.dataset", ("load_raw_directory",)),
    "dataset.split": ("semiae.dataset", ("split",)),
    "dataset.binarize": ("semiae.dataset", ("binarize",)),
    "dataset.densify": ("semiae.dataset", ("build_vectors",)),
    "dataset.prepared_write": ("semiae.dataset", ("write_prepared",)),
    "dataset.prepared_read": ("semiae.dataset", ("read_prepared",)),
    "model.loss_grad": ("semiae.model", ("loss_and_gradients",)),
    "model.forward": ("semiae.model", ("forward",)),
    "model.params_save": ("semiae.model", ("save_params",)),
    "model.params_load": ("semiae.model", ("load_params",)),
    "optim.update": ("semiae.optim", ("update",)),
    "trainer.train": ("semiae.trainer", ("train_rating", "train_ranking")),
    "trainer.predict": ("semiae.trainer", ("predict_ratings",)),
    "trainer.recommend": ("semiae.trainer", ("recommend_top_n",)),
    "trainer.save": ("semiae.trainer", ("save_model",)),
    "trainer.load": ("semiae.trainer", ("load_model",)),
    "evaluation.rmse": ("semiae.evaluation", ("rmse",)),
    "evaluation.recall": ("semiae.evaluation", ("recall_at_n",)),
    "evaluation.most_popular": ("semiae.evaluation", ("most_popular",)),
    "cli.prepare": ("semiae.cli", ("cmd_prepare",)),
    "cli.train": ("semiae.cli", ("cmd_train",)),
    "cli.evaluate": ("semiae.cli", ("cmd_evaluate",)),
    "cli.recommend": ("semiae.cli", ("cmd_recommend",)),
    "cli.reproduce": ("semiae.cli", ("cmd_reproduce",)),
}


class Tracer:
    """Records spans while installed; spans stay in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def install(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, fn_names) in SPANS.items():
            home_mod = importlib.import_module(home)
            for fn_name in fn_names:
                original = getattr(home_mod, fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, summed duration and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for k, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_time[k]
        entry["total_s"] += end - start
        entry["calls"] += 1
    return stats


def top_level_time(spans: list[list]) -> float:
    """Summed duration of the spans that have no parent span."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
