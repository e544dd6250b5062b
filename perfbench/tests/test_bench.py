"""Tests of the benchmark itself: ground truth, tracing neutrality, metric surface.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, trace, workloads
from perfbench.workloads import WORKLOADS, planted_optimum, planted_value

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Shrunken budgets so each unit takes well under a second.
TINY = {
    "planted-search": {"bandit": {"n_rounds": 20}, "stage2": {"n_samples": 7, "pool_size": 32}},
    "linear-grid": {"bandit": {"n_rounds": 20}, "stage2": {"n_samples": 6}},
    "cli-replay": {"bandit": {"n_rounds": 100}, "stage2": {"n_samples": 6, "pool_size": 32}},
}


def tiny(name: str) -> workloads.Workload:
    w = WORKLOADS[name]
    raw = json.loads(json.dumps(w.raw_config))
    for section, values in TINY[name].items():
        raw.setdefault(section, {}).update(values)
    if raw["environment"]["family"] == "shared-linear":
        raw["environment"]["total_batches"] = 50
    return dataclasses.replace(w, raw_config=raw)


def brute_force_optimum(theta, ratio_max):
    """Enumerate the whole grid, one primary count at a time."""
    n = len(theta)
    aux = np.indices((ratio_max + 1,) * (n - 1)).reshape(n - 1, -1).T.astype(float)
    best = (-np.inf, None)
    for primary in range(1, ratio_max + 1):
        grid = np.hstack([np.full((aux.shape[0], 1), float(primary)), aux])
        values = 0.5 + (grid @ (np.asarray(theta) - 0.5)) / grid.sum(axis=1)
        i = int(np.argmax(values))
        if values[i] > best[0]:
            best = (float(values[i]), tuple(int(c) for c in grid[i]))
    return best


def test_planted_search_optimum_is_pinned():
    theta = WORKLOADS["planted-search"].theta_star
    value, counts = planted_optimum(theta, 20)
    assert counts == (1, 20, 20, 0, 0)
    assert value == pytest.approx(0.5 + 16.3 / 41, abs=1e-15)
    assert brute_force_optimum(theta, 20) == (pytest.approx(value, abs=1e-12), counts)


@pytest.mark.parametrize("seed", range(20))
def test_planted_optimum_matches_enumeration_on_small_grids(seed):
    rng = np.random.default_rng(seed)
    theta = [float(t) for t in rng.random(int(rng.integers(2, 6)))]
    ratio_max = int(rng.integers(1, 5))
    value, counts = planted_optimum(theta, ratio_max)
    assert planted_value(theta, list(counts)) == value
    assert value == pytest.approx(brute_force_optimum(theta, ratio_max)[0], abs=1e-12)


def _snapshot():
    owners = list(trace.package_modules())
    owners += [getattr(__import__(f"auxmix.{m}", fromlist=[c]), c) for m, c, _ in trace.METHODS]
    return {(id(o), key): value for o in owners for key, value in vars(o).items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_is_neutral_and_restores_every_name(name, tmp_path):
    workload = tiny(name)
    workloads.write_config(workload, tmp_path)
    tracer = trace.Tracer()
    before = _snapshot()
    plain = workloads.run_unit(workload, 12345, tmp_path, tracer.paused)
    with tracer.installed():
        assert _snapshot() != before
        traced = workloads.run_unit(workload, 12345, tmp_path, tracer.paused)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert plain.problems == [] and traced.problems == []
    assert {"stage1.log.jsonl", "stage2.log.jsonl", "report.json"} <= set(plain.outputs)
    assert traced.outputs == plain.outputs

    spans = tracer.take()
    names = {s[0] for s in spans}
    assert "pipeline.run_pipeline" in names
    if name != "linear-grid":
        # Reached only through the names mixing and acquisition imported.
        assert {"gp.posterior_at", "gp.fit", "acquisition.ei"} <= names
    assert all(spans[parent][0] == "gp.fit" for n, _, _, parent in spans if n == "gp.lml")


def _expected_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


# Named by the benchmark's definition; each must be reported.
REQUIRED_END_TO_END = {"setup_s", "runs_per_s", "run_p50_s", "replay_p50_s", "regret", "gain",
                    "fail_frac", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    "mixing.propose_next.calls", "mixing.propose_next.s", "mixing.propose_next.p50_ms",
    "mixing.self_s", "gp.posterior_at.calls", "gp.posterior_at.s", "acquisition.score.calls",
    "acquisition.score.s", "acquisition.hedge_update.s", "gp.fit.calls", "gp.fit.s",
    "gp.lml.calls", "mixing.distinct_frac", "environments.train_full.calls",
    "environments.train_full.s", "environments.train_full.p50_ms", "environments.step.calls",
    "environments.step.s", "environments.validation_metric.s", "environments.sgd_batches",
    "bandit.run_stage1.calls", "bandit.run_stage1.s", "bandit.rounds", "bandit.self_s",
    "runlog.append.calls", "runlog.append.s", "runlog.lines.s", "runlog.read_jsonl.s",
    "runlog.log_bytes", "pipeline.write_outputs.s", "pipeline.output_bytes", "cli.run.s",
    "cli.replay.s", "cli.replay.self_s", "pipeline.run_pipeline.s", "setup.import_s",
    "setup.env_build_s", "config.load.s", "trace.overhead_s",
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metric_surface_of_every_workload(name):
    end_to_end, per_layer = _expected_names()
    assert REQUIRED_PER_LAYER <= per_layer.keys()
    for trace_on, expected in ((False, end_to_end), (True, per_layer)):
        record, summary, _ = run.measure(tiny(name), 0, 0.01, trace_on, setup_samples=1)
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        metrics = record["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        for key, entry in metrics.items():
            assert NAME.fullmatch(key) and UNIT.fullmatch(entry["unit"])
            assert isinstance(entry["value"], float) and np.isfinite(entry["value"])
        reported = {**run.END_TO_END_UNITS, **run.REPORTED_UNITS}
        assert REQUIRED_END_TO_END <= reported.keys() <= summary.keys()
        assert summary["fail_frac"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
