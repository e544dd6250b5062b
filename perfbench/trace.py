"""Span tracing of auxmix's public functions, installed from outside the package.

Callers inside auxmix import names directly (``from .gp import fit``), so
wrapping only ``gp.fit`` would miss the calls that go through
``mixing.fit``.  :meth:`Tracer.install` therefore replaces a function at
every auxmix module attribute that holds it, and environment and run-log
methods on their classes.  :meth:`Tracer.uninstall` puts every original
back.  A name that the package no longer defines is skipped, and its
metrics read 0.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of
the enclosing span in the same list or -1.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module, function, span name)
FUNCTIONS = (
    ("bandit", "run_stage1", "bandit.run_stage1"),
    ("bandit", "sample_utilities", "bandit.sample_utilities"),
    ("bandit", "select_arm", "bandit.select_arm"),
    ("bandit", "compute_reward", "bandit.compute_reward"),
    ("bandit", "update_posterior", "bandit.update_posterior"),
    ("bandit", "select_tasks", "bandit.select_tasks"),
    ("bandit", "utility_density_table", "bandit.utility_density_table"),
    ("gp", "fit", "gp.fit"),
    ("gp", "build_gp", "gp.build_gp"),
    ("gp", "posterior_at", "gp.posterior_at"),
    ("gp", "log_marginal_likelihood", "gp.lml"),
    ("acquisition", "probability_of_improvement", "acquisition.pi"),
    ("acquisition", "expected_improvement", "acquisition.ei"),
    ("acquisition", "upper_confidence_bound", "acquisition.ucb"),
    ("acquisition", "hedge_select", "acquisition.hedge_select"),
    ("acquisition", "hedge_update", "acquisition.hedge_update"),
    ("mixing", "run_stage2", "mixing.run_stage2"),
    ("mixing", "propose_next", "mixing.propose_next"),
    ("environments", "make_environment", "environments.make_environment"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "write_outputs", "pipeline.write_outputs"),
    ("pipeline", "write_density_csv", "pipeline.write_density_csv"),
    ("runlog", "read_jsonl", "runlog.read_jsonl"),
    ("config", "load_config", "config.load"),
    ("config", "normalize", "config.normalize"),
    ("config", "to_pipeline_config", "config.to_pipeline_config"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_replay", "cli.replay"),
)

# (module, class, methods); span names are "<module>.<method>".
METHODS = (
    ("environments", "PlantedBanditEnv", ("reset", "step", "validation_metric", "train_full")),
    ("environments", "SharedParamMtlEnv", ("reset", "step", "validation_metric", "train_full")),
    ("runlog", "RunLog", ("append", "lines", "write_jsonl")),
)


def package_modules() -> list:
    """The imported auxmix package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "auxmix" or name.startswith("auxmix."))]


class Tracer:
    """Records spans around wrapped auxmix functions while installed and recording."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.recording = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for module_name, attr, span in FUNCTIONS:
            module = importlib.import_module(f"auxmix.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, key, original))
                        setattr(owner, key, wrapper)
        for module_name, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"auxmix.{module_name}"), cls_name, None)
            for method in methods if cls is not None else ():
                original = cls.__dict__.get(method)
                if original is not None:
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"{module_name}.{method}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def take(self) -> list[tuple[str, float, float, int]]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


class SpanStats:
    """Per-name call counts, total and exclusive times, and durations of one span list."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.exclusive: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.exclusive[name] = self.exclusive.get(name, 0.0) + (end - start - child[i])
            self.durations.setdefault(name, []).append(end - start)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def seconds(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.exclusive.get(n, 0.0) for n in names)

    def layer_self_seconds(self, layer: str) -> float:
        """Time inside ``layer``'s spans not covered by the spans they called."""
        return sum(v for n, v in self.exclusive.items() if n.startswith(layer + "."))
