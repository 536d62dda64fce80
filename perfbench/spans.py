"""Spans around the calls into labelforge's layers, recorded from outside.

``install`` replaces each function named in GROUPS by a timing wrapper at
every module attribute that is bound to it (the defining module and every
``from .x import f`` site), so calls made between labelforge modules are
seen as well as calls made by the CLI. Spans stay in memory and are written
once, when the command ends, for the parent to read back with ``load``. A function that no longer exists is reported
as absent and the run carries on.

``summarize`` turns the spans of one repetition into per-layer metrics.
"""

from __future__ import annotations

import marshal
import os
import sys
import time
from functools import wraps

# group -> functions ("module.name") whose calls it times. A group's time is
# the time inside its outermost calls (a call nested in another call of the
# same group is not counted twice).
GROUPS = {
    "cli.holdout": ["cli._holdout"],
    "dataio.read": ["dataio.read_dataset", "dataio.read_predictions", "dataio.load_model"],
    "dataio.write": [
        "dataio.write_dataset",
        "dataio.write_predictions",
        "dataio.save_model",
        "dataio.write_results_table",
    ],
    "priors.build": ["priors.build_mv_priors", "priors.majority_vote"],
    "model.loglik": ["model.log_likelihoods"],
    "train.fit": ["train.fit"],
    "train.grad": ["train.grad_accuracy", "train.grad_coverage"],
    "infer.predict": ["infer.predict"],
    "metrics.score": ["metrics.score", "metrics.auc_roc"],
    "experiments.split": ["experiments.split"],
    "experiments.cell": ["experiments._fit_and_score"],
    "experiments.grid": ["experiments.grid_search"],
}

LAYERS = ("cli", "dataio", "priors", "model", "train", "infer", "metrics", "experiments")


def _path_size(key):
    def count(args, _result):
        return {key: os.path.getsize(args[0])}

    return count


# function -> counts taken from its arguments or result, after the span ends
COUNTERS = {
    "read_dataset": _path_size("bytes_read"),
    "read_predictions": _path_size("bytes_read"),
    "load_model": _path_size("bytes_read"),
    "write_dataset": _path_size("bytes_written"),
    "write_predictions": _path_size("bytes_written"),
    "save_model": _path_size("bytes_written"),
    "write_results_table": _path_size("bytes_written"),
    "fit": lambda _a, out: {"epochs": out.stopped_epoch},
    "predict": lambda _a, out: {
        "rows": len(out),
        "degenerate_rows": int((out.abstain_reason == "degenerate").sum()),
    },
    "grid_search": lambda _a, out: {
        "cells": len(out.cells),
        "cells_failed": sum(cell.error is not None for cell in out.cells),
    },
}


class Recorder:
    """In-memory span store for one process. A span is
    [id, parent_id, group, function, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._next_id = 0

    def wrap(self, fn, group: str):
        counter = COUNTERS.get(fn.__name__)

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append([span_id, parent, group, fn.__name__, start,
                                   time.perf_counter(), {}])
                raise
            finally:
                self.stack.pop()
            end = time.perf_counter()
            counts = counter(args, result) if counter else {}
            self.spans.append([span_id, parent, group, fn.__name__, start, end, counts])
            return result

        return traced

    def dump(self, path) -> None:
        # marshal is an order of magnitude faster than json here, and the
        # file is read back only by the parent running the same interpreter.
        with open(path, "wb") as fh:
            marshal.dump({"absent": self.absent, "spans": self.spans}, fh)


def load(path) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)


def install() -> Recorder:
    """Wrap every GROUPS function at each labelforge attribute bound to it."""
    import labelforge.cli  # noqa: F401  (imports every layer module)

    modules = [mod for name, mod in sys.modules.items()
               if name == "labelforge" or name.startswith("labelforge.")]
    rec = Recorder()
    for group, names in GROUPS.items():
        for qualified in names:
            module_name, attr = qualified.split(".")
            home = sys.modules.get(f"labelforge.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                rec.absent.append(qualified)
                continue
            wrapper = rec.wrap(original, group)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return rec


def summarize(commands: list[tuple[float, dict]]) -> dict:
    """Per-layer figures of one repetition.

    ``commands`` holds, per CLI command, its wall time as seen by the parent
    and the dumped span file contents. Returns group times and call counts,
    self time per layer, summed counts, and ``cli.self_s``: command time
    outside every span (interpreter start, imports, argument parsing).
    """
    group_s = {group: 0.0 for group in GROUPS}
    group_calls = {group: 0 for group in GROUPS}
    self_s = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    cli_self = 0.0
    for wall, dumped in commands:
        spans = {span[0]: span for span in dumped["spans"]}
        child_time = {span_id: 0.0 for span_id in spans}
        top_level = 0.0
        for span_id, parent, group, _fn, start, end, span_counts in spans.values():
            duration = end - start
            if parent is None:
                top_level += duration
            else:
                child_time[parent] += duration
            ancestor = parent
            while ancestor is not None and spans[ancestor][2] != group:
                ancestor = spans[ancestor][1]
            if ancestor is None:
                group_s[group] += duration
                group_calls[group] += 1
            for key, value in span_counts.items():
                counts[key] = counts.get(key, 0) + value
        for span_id, span in spans.items():
            self_s[span[2].split(".")[0]] += (span[5] - span[4]) - child_time[span_id]
        cli_self += wall - top_level
    self_s["cli"] += cli_self
    return {
        "group_s": group_s,
        "group_calls": group_calls,
        "self_s": self_s,
        "counts": counts,
        "cli_self_s": cli_self,
    }
