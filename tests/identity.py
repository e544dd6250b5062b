"""Byte-identity sweep: the sha256 of every file a fixed corpus of runs writes.

Each run of the corpus is rendered in process, as ``auxmix run`` renders it
(``pipeline.run_files``, at ``--grid-size 10`` unless said otherwise), and
nothing is written to disk.  The sweep prints one ``run/file sha256`` line per file, then
``corpus <sha256>`` over those lines.  The corpus runs these configs of
``tests/configs.py``, which the tests and CI's smoke steps run too:

* ``TINY`` and ``LINEAR`` in all three modes;
* ``DIVERGING`` in all three modes, which aborts in stage 1 and, without
  stage 1, at the baseline;
* aborts inside stage 2, which no shipped config reaches (``DIVERGING``
  fails at the baseline first): ``TINY`` with a fault of ``faults.py`` on
  the training of GP round 3 in ``full`` mode, NaN and an exception, and
  NaN on round 2 in ``no_stage2`` mode;
* ``PLANTED_SEARCH``, seeds 1000-1039;
* ``CRITERION_07_ENVIRONMENT`` in all three modes, seeds 1000-1039;
* ``CRITERION_06_ENVIRONMENT`` (``no_stage1``, 20 evaluations), seeds 1000-1199;
* ``LONGINIT512``, 512 evaluations of which 510 are random;
* the ``hedge_eta: 1.0e+308`` and ``ratio_max: 10^9`` runs of ``tests/test_cli.py``;
* ``CLI_REPLAY`` (10 planted tasks, 2000 stage-1 rounds), seeds 1000-1009,
  at the CLI's default grid of 1000.

The hashes depend on the machine's BLAS and libm, so compare them only
between trees rendered on one machine::

    PYTHONPATH=src python tests/identity.py
    PYTHONPATH=src python tests/identity.py --against REV

``--against REV`` also renders the corpus from ``git archive REV``, unpacked
in a temporary directory, and exits 1 at the first run and file whose text
differs, naming its first differing line and, in a log, field, as
``auxmix replay`` does (``cli._divergence``; a file REV lacks is "not
written by the rerun").  BLAS runs on one thread in both.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported

import argparse
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from configs import (
    CLI_REPLAY,
    CRITERION_06_ENVIRONMENT,
    CRITERION_07_ENVIRONMENT,
    DIVERGING,
    LINEAR,
    LONGINIT512,
    PLANTED_SEARCH,
    TINY,
    section,
)
from faults import Faults

GRID_SIZE = 10
CLI_GRID_SIZE = 1000  # the CLI's default --grid-size
SEEDS = range(1000, 1040)
MODES = ("full", "no_stage1", "no_stage2")


def _seeded(raw: dict, seed: int) -> dict:
    """``raw`` with both stage seeds set to ``seed``, as ``auxmix run --seeds`` sets them."""
    return section(section(raw, "bandit", rng_seed=seed), "stage2", rng_seed=seed)


def corpus() -> Iterator[tuple[str, dict, int, tuple[int, object] | None]]:
    """Each run's name, raw config, grid size and stage-2 failure, in a fixed
    order; the failure is ``(round, fault)``, the fault on that round's
    training, or None."""
    for name, raw in (("tiny", TINY), ("linear", LINEAR), ("abort", DIVERGING)):
        for mode in MODES:
            yield f"{name}-{mode}", {**raw, "mode": mode}, GRID_SIZE, None
    for mode, t, how in (("full", 3, "nan"), ("full", 3, "raise"), ("no_stage2", 2, "nan")):
        fault = (t, RuntimeError("injected failure") if how == "raise" else math.nan)
        yield f"tiny-{mode}-{how}{t}", {**TINY, "mode": mode}, GRID_SIZE, fault
    for seed in SEEDS:
        yield f"planted-search-{seed}", _seeded(PLANTED_SEARCH, seed), GRID_SIZE, None
    for mode in MODES:
        for seed in SEEDS:
            raw = _seeded({"mode": mode, "environment": CRITERION_07_ENVIRONMENT}, seed)
            yield f"c07-{mode}-{seed}", raw, GRID_SIZE, None
    for seed in range(1000, 1200):
        raw = _seeded({"mode": "no_stage1", "environment": CRITERION_06_ENVIRONMENT}, seed)
        yield f"c06-{seed}", raw, GRID_SIZE, None
    yield "longinit512", LONGINIT512, GRID_SIZE, None
    hugeeta = section(TINY, "stage2", hedge_eta=1.0e308, n_samples=20)
    yield "hugeeta", hugeeta, GRID_SIZE, None
    yield "bigratio", section(LINEAR, "stage2", ratio_max=10**9), GRID_SIZE, None
    for seed in range(1000, 1010):
        yield f"cli-replay-{seed}", _seeded(CLI_REPLAY, seed), CLI_GRID_SIZE, None


def _files(raw: dict, grid_size: int, fault: tuple[int, object] | None) -> dict[str, str]:
    """The text of each file one run of the corpus writes, by file name."""
    from auxmix import cli, config, pipeline
    from auxmix.runlog import derive_seed

    cfg = config.to_pipeline_config(raw)
    if fault is not None:
        t, bad = fault
        env = Faults(cfg.env, {derive_seed(cfg.stage2.rng_seed, "eval", t): bad})
        cfg = dataclasses.replace(cfg, env=env)
    return pipeline.run_files(cli._outcome(cfg), cfg.normalized, grid_size)


def files_of(run: str) -> dict[str, str]:
    """:func:`_files` of the corpus run named ``run``."""
    return next(_files(*rest) for name, *rest in corpus() if name == run)


def render() -> list[str]:
    """One ``run/file sha256`` line per file of every run of the corpus."""
    lines = []
    for name, *rest in corpus():
        for file, text in sorted(_files(*rest).items()):
            lines.append(f"{name}/{file} {hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    return lines


def call_at(rev: str, call: str):
    """The value of ``call``, an expression over this script's names,
    evaluated in a fresh interpreter on the ``src`` of ``git archive rev``,
    with this script's directory on the path for :mod:`configs` and
    :mod:`faults`, and passed back as JSON."""
    here = Path(__file__).resolve()
    root = here.parents[1]
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        src = str(Path(tmp, "src"))
        code = (
            f"import json, runpy, sys; sys.path[:0] = [{src!r}, {str(here.parent)!r}]; "
            f"ns = runpy.run_path({str(here)!r}); "
            f"print(json.dumps(eval({call!r}, ns)))"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", help="also render REV and compare")
    args = parser.parse_args(argv)
    lines = render()
    text = "".join(line + "\n" for line in lines)
    print(text + f"corpus {hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    if args.against is None:
        return 0
    theirs = dict(line.split(" ") for line in call_at(args.against, "render()"))
    ours = dict(line.split(" ") for line in lines)
    for path in [*ours, *(f for f in theirs if f not in ours)]:
        if ours.get(path) != theirs.get(path):
            from auxmix.cli import _divergence

            run, file = path.split("/")
            found = files_of(run).get(file)
            expected = call_at(args.against, f"files_of({run!r})").get(file)
            where = _divergence(found, expected, Path(path), file.endswith(".jsonl"))
            print(f"differs from {args.against}: {where}", file=sys.stderr)
            return 1
    print(f"identical to {args.against}: {len(ours)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
