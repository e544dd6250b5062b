"""One fault model for the tests of the abort boundary.

A fault names the training or the call it hits, never a position in a run:

* a stage-2 fault by the seed of the training it hits,
  ``derive_seed(rng_seed, "baseline")`` or ``derive_seed(rng_seed, "eval", t)``
  for stage-2 round ``t``.  An exception makes that training's whole
  ``train_full`` call raise, as a lockstep batch does; any other value
  becomes its score, beside the true scores of the others;
* a stage-1 fault by ``(method, n)``: the call of ``reset``, ``step`` or
  ``validation_metric`` that follows ``n`` earlier calls of that method.
  An exception is raised; any other value is returned in place of the call.

:class:`Faults` wraps one environment; :func:`patched` puts the faults on
every instance of an environment class, for runs built from a config file::

    env = Faults(PlantedBanditEnv(), {derive_seed(0, "eval", 3): math.nan})
    with patched(PlantedBanditEnv, {("step", 7): RuntimeError("lost device")}) as faults:
        ...

Either way the model records each ``train_full`` call as ``(counts, seeds)``
in :attr:`Faults.calls`.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import unittest.mock as mock

METHODS = ("reset", "step", "validation_metric", "train_full")


class Faults:
    """``env`` with ``faults``, a mapping from seed or ``(method, n)`` to fault.

    Every other attribute, ``n_tasks`` among them, is the environment's own.
    """

    def __init__(self, env, faults=()):
        self.env = env
        self.faults = dict(faults)
        self.calls: list[tuple[list[tuple[int, ...]], list[int]]] = []
        self._made = collections.Counter()

    def __getattr__(self, name):
        value = getattr(self.env, name)
        return self.hook(name, value) if name in METHODS else value

    def hook(self, method: str, call):
        """``call``, the bound environment method named ``method``, under the faults."""
        if method == "train_full":
            return functools.partial(self._train_full, call)
        return functools.partial(self._stage1, method, call)

    def _stage1(self, method, call, *args):
        key = (method, self._made[method])
        self._made[method] += 1
        if key not in self.faults:
            return call(*args)
        if isinstance(self.faults[key], BaseException):
            raise self.faults[key]
        return self.faults[key]

    def _train_full(self, call, ratios, seeds):
        self.calls.append(([ratio.counts for ratio in ratios], list(seeds)))
        for seed in seeds:
            if isinstance(self.faults.get(seed), BaseException):
                raise self.faults[seed]
        scores = call(ratios, seeds)
        return [self.faults.get(seed, score) for seed, score in zip(seeds, scores)]


@contextlib.contextmanager
def patched(cls: type, faults=()):
    """Put ``faults`` on every instance of ``cls`` while the block runs; yields
    the one :class:`Faults` that counts and records the calls of them all."""
    model = Faults(None, faults)

    def hooked(method):
        original = getattr(cls, method)
        return lambda env, *args: model.hook(method, functools.partial(original, env))(*args)

    with mock.patch.multiple(cls, **{method: hooked(method) for method in METHODS}):
        yield model
