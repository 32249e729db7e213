"""In-memory span tracer that wraps preflab functions where they are looked up.

``from .policy import log_prob_vector`` copies a reference into the importing
module, so a function is traced by replacing that module attribute, not the
definition. Each site in ``TRACED_SITES`` (or ``CELL_SITES`` for untraced
runs) is rebound to a wrapper that records one span per call: name, start,
end, parent span and cell id. Spans live in flat ``array`` columns until the
end of the repetition. Forked pool workers inherit the wrappers and flush
their columns to one ``.npz`` file whenever their outermost span closes, which
is once per cell.

Nothing under ``src/`` is edited: the wrappers are installed at run time, in
the repetition process only.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# One monotonic clock for every process: on Linux time.monotonic is
# CLOCK_MONOTONIC, shared by the forked workers and ``run.py``.
clock = time.monotonic

CELL_SPAN = "harness.run_cell"

# (module whose namespace is patched, attribute) pairs. Untraced runs time
# whole cells only.
CELL_SITES = [("preflab.harness", "run_cell")]

TRACED_SITES = CELL_SITES + [
    ("preflab.cli", "parse_config"),
    ("preflab.harness", "parse_config"),
    ("preflab.harness", "generate_universe"),
    ("preflab.harness", "_cell_worker"),
    ("preflab.harness", "sft_fit"),
    ("preflab.harness", "run_online_dpo"),
    ("preflab.harness", "evaluate_run"),
    ("preflab.harness", "estimate_win_rate"),
    ("preflab.harness", "probe_accuracy"),
    ("preflab.harness", "collapse_metrics"),
    ("preflab.harness", "_write_run_outputs"),
    ("preflab.trainer", "generate_candidates"),
    ("preflab.trainer", "form_pairs"),
    ("preflab.trainer", "select_random"),
    ("preflab.trainer", "select_apl"),
    ("preflab.trainer", "entropy_estimate"),
    ("preflab.trainer", "dpo_batch_grad"),
    ("preflab.trainer", "optimizer_step"),
    ("preflab.trainer", "grad_log_prob"),
    # policy functions, at every module that looks them up
    ("preflab.policy", "log_prob_vector"),
    ("preflab.selection", "log_prob_vector"),
    ("preflab.dpo", "log_prob"),
    ("preflab.dpo", "grad_log_prob"),
    ("preflab.evaluation", "logits"),
    ("preflab.evaluation", "sample_response"),
    ("preflab.evaluation", "exact_entropy"),
    # methods, patched on the class
    ("preflab.universe", "PromptUniverse.content_hash"),
    ("preflab.universe", "PromptUniverse.save"),
    ("preflab.universe", "PromptUniverse.load"),
    ("preflab.judges", "Judge.prefer"),
]


class SetupDone(Exception):
    """Raised by the first cell of a set-up-only repetition."""


def _setup_done(*args, **kwargs):
    raise SetupDone()


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Span columns for one process tree, plus the dispatch mark."""

    def __init__(self, out_dir: Path, stop_at_first_cell: bool = False):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.stop_at_first_cell = stop_at_first_cell
        self.names: list[str] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.cell = array.array("i")
        self.stack = [-1]
        self.cells: list[tuple[str, str]] = []  # (run_id, selector) per cell id
        self.cell_id = -1
        self.dispatch: tuple[float, float] | None = None  # (clock, own CPU seconds)
        self.main_pid = os.getpid()
        self._wrapped: dict = {}
        self._flushes = 0
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        # a forked worker starts with no open spans and none of the parent's
        for column in (self.start, self.end, self.name, self.parent, self.cell):
            del column[:]
        del self.stack[1:]
        self.cells.clear()
        self.cell_id = -1

    # ---------------------------------------------------------------- install

    def install(self, sites) -> None:
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(raw))
            else:
                setattr(module, attr, self._wrap(getattr(module, attr)))
        harness = importlib.import_module("preflab.harness")
        harness.ProcessPoolExecutor = self._pool_class()

    def _wrap(self, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        self.names.append(span_name)
        name_id = len(self.names) - 1
        if span_name != CELL_SPAN:
            wrapper = self._span_wrapper(fn, name_id)
        else:
            inner = self._span_wrapper(_setup_done if self.stop_at_first_cell else fn, name_id)
            params = list(inspect.signature(fn).parameters)
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = dict(zip(params, args), **kwargs)
                tracer.begin_cell(Path(bound["run_dir"]).name, bound["selector"])
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.cell_id = -1

        self._wrapped[fn] = wrapper
        return wrapper

    def _span_wrapper(self, fn, name_id: int):
        start, end, names, parent, cell, stack = (
            self.start, self.end, self.name, self.parent, self.cell, self.stack
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            cell.append(tracer.cell_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if len(stack) == 1 and os.getpid() != tracer.main_pid:
                    tracer.flush()

        return traced

    def _pool_class(self):
        tracer = self

        class SubmitMarkingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tracer.mark_dispatch()
                return super().map(fn, *iterables, **kwargs)

        return SubmitMarkingPool

    # ---------------------------------------------------------------- record

    def mark_dispatch(self) -> None:
        """Record when the main process first hands out cells: pool submission,
        or the first cell's start when cells run serially."""
        if self.dispatch is None and os.getpid() == self.main_pid:
            self.dispatch = (clock(), _cpu_self())

    def begin_cell(self, run_id: str, selector: str) -> None:
        self.mark_dispatch()
        self.cells.append((run_id, selector))
        self.cell_id = len(self.cells) - 1

    def timed(self, span_name: str, fn):
        """``fn`` recording a span named ``span_name``, for benchmark-side steps."""
        self.names.append(span_name)
        return self._span_wrapper(fn, len(self.names) - 1)

    def flush(self) -> None:
        """Write and clear this process's spans; parent ids stay file-local."""
        if not len(self.start):
            return
        path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        self._flushes += 1
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cell=np.frombuffer(self.cell, dtype=np.int32),
            cell_run_id=np.array([c[0] for c in self.cells] or [""]),
            cell_selector=np.array([c[1] for c in self.cells] or [""]),
            names=np.array(self.names),
        )
        for column in (self.start, self.end, self.name, self.parent, self.cell):
            del column[:]


def summarize(span_dir: Path) -> dict:
    """Cells and per-name totals from every span file of one repetition.

    ``total`` is the inclusive time of a name's spans, ``self`` that time minus
    the part its child spans cover. ``cells`` lists each run_cell span with its
    selector, start, end and self time; the cell's attributed time is its
    duration minus that self time.
    """
    layers: dict[str, dict] = {}
    cells = []
    for path in sorted(Path(span_dir).glob("spans-*.npz")):
        with np.load(path) as data:
            start, end = data["start"], data["end"]
            name, parent, cell = data["name"], data["parent"], data["cell"]
            names = [str(n) for n in data["names"]]
            run_ids, selectors = data["cell_run_id"], data["cell_selector"]
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        for name_id in np.unique(name):
            pick = name == name_id
            entry = layers.setdefault(names[name_id], {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += int(pick.sum())
            entry["total"] += float(dur[pick].sum())
            entry["self"] += float(own[pick].sum())
        cell_name = names.index(CELL_SPAN) if CELL_SPAN in names else -1
        for i in np.flatnonzero(name == cell_name):
            cells.append(
                {
                    "run_id": str(run_ids[cell[i]]),
                    "selector": str(selectors[cell[i]]),
                    "start": float(start[i]),
                    "end": float(end[i]),
                    "self": float(own[i]),
                }
            )
    cells.sort(key=lambda c: c["start"])
    return {"layers": layers, "cells": cells}
