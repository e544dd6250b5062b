"""Pipeline orchestration: modes, budgets, reports, and artifacts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from auxmix.bandit import BanditConfig, thompson_draws
from auxmix.config import normalize, to_pipeline_config
from auxmix.environments import PlantedBanditEnv, make_environment
from auxmix.mixing import (
    MAX_RATIO_MAX,
    MixingRatio,
    Stage2Config,
    expand_to_tasks,
    validate_ratio,
)
from auxmix.pipeline import (
    PIPELINE_MODES,
    RUN_FILES,
    PipelineConfig,
    PipelineReport,
    manual_ratio_grid,
    report_summary,
    run_pipeline,
    write_outputs,
)
from auxmix.runlog import SCHEMA_VERSION, RunAborted, RunLog, derive_seed, make_header, read_jsonl
from configs import TINY, TINY_SHARED_LINEAR, section
from faults import Faults

PLANTED2 = {"family": "planted", "theta_star": [0.9, 0.1]}
PLANTED3 = {"family": "planted", "theta_star": [0.9, 0.8, 0.1]}


def make_config(mode="full", env=None, n_rounds=60, n_samples=8, n_initial=3, seed=0):
    env = env or PLANTED3
    n_tasks = len(env["theta_star"])
    return PipelineConfig(
        bandit=BanditConfig(n_tasks=n_tasks, n_rounds=n_rounds, rng_seed=seed),
        stage2=Stage2Config(n_samples=n_samples, n_initial=n_initial, rng_seed=seed),
        env=make_environment(env),
        mode=mode,
    )


def _run_with(env, mode="full"):
    """:func:`run_pipeline` of ``make_config(mode=mode)`` on ``env``."""
    config = make_config(mode=mode)
    return run_pipeline(PipelineConfig(config.bandit, config.stage2, env, mode))


# ----------------------------------------------------------- config guard

def test_pipeline_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        make_config(mode="stage3")


def test_pipeline_rejects_task_count_mismatch():
    with pytest.raises(ValueError, match="tasks"):
        PipelineConfig(
            bandit=BanditConfig(n_tasks=4),
            stage2=Stage2Config(n_samples=4, n_initial=2),
            env=make_environment(PLANTED3),
        )


# ------------------------------------------------------------ manual grid

def test_manual_grid_single_aux_walks_upward():
    grid = manual_ratio_grid(1, 5, 20)
    assert [r.counts for r in grid] == [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]


def test_manual_grid_single_aux_caps_at_ratio_max():
    grid = manual_ratio_grid(1, 25, 20)
    assert grid[-1].counts == (1, 20)
    assert len(grid) == 25


def test_manual_grid_multi_aux_lattice_lexicographic():
    grid = manual_ratio_grid(2, 6, 20)
    assert [r.counts for r in grid] == [
        (10, 0, 0),
        (10, 0, 5),
        (10, 0, 10),
        (10, 0, 20),
        (10, 5, 0),
        (10, 5, 5),
    ]


def test_manual_grid_cycles_past_lattice_end():
    grid = manual_ratio_grid(2, 17, 20)
    assert len(grid) == 17
    assert grid[16].counts == grid[0].counts  # 4^2 = 16 combos, then wrap


def test_manual_grid_budget_always_respected():
    for n_aux in (0, 1, 2, 3):
        for budget in (1, 7, 20):
            assert len(manual_ratio_grid(n_aux, budget, 20)) == budget


def test_manual_grid_rejects_empty_budget():
    with pytest.raises(ValueError):
        manual_ratio_grid(1, 0, 20)


# ------------------------------------------------------------------ modes

def test_full_mode_selects_and_optimizes():
    report = run_pipeline(make_config())
    assert report.mode == "full"
    assert report.selection.selected_task_ids[0] == 0
    assert len(report.stage1_log.records) == 60
    assert len(report.stage2_log.records) == 8
    assert 0.0 <= report.best_score <= 1.0


def test_no_stage1_mode_keeps_every_task():
    report = run_pipeline(make_config(mode="no_stage1"))
    assert report.selection.selected_task_ids == (0, 1, 2)
    assert report.stage1_log.records == []
    assert report.selection.final_arms == ((3.0, 1.0), (1.0, 1.0), (1.0, 1.0))


def test_no_stage2_mode_runs_the_manual_grid():
    report = run_pipeline(make_config(mode="no_stage2"))
    assert len(report.stage2_log.records) == 8
    used = {r["acquisition_used"] for r in report.stage2_log.records}
    assert used == {"grid"}
    assert len(report.stage1_log.records) == 60


def test_no_stage2_grid_matches_selection_width():
    report = run_pipeline(make_config(mode="no_stage2"))
    n_sel = len(report.selection.selected_task_ids)
    for rec in report.stage2_log.records:
        assert len(rec["proposed_ratio"]) == n_sel


def _reference_grid_stage2(env, task_ids, config):
    """The separate grid loop ``no_stage2`` ran before it became a proposal
    list for ``run_stage2``; kept as the oracle for that path.  Returns the
    best ``(ratio, score)``, the earliest on ties, and the log."""
    grid = manual_ratio_grid(len(task_ids) - 1, config.n_samples, config.ratio_max)
    records = []
    log = RunLog()
    best_score = -math.inf
    for t, ratio in enumerate(grid):
        validate_ratio(ratio, config.ratio_max)
        seed = derive_seed(config.rng_seed, "eval", t)
        env_ratio = expand_to_tasks(ratio, task_ids, env.n_tasks)
        (score,) = env.train_full([env_ratio], [seed])
        records.append((ratio, score))
        best_score = max(best_score, score)
        log.append(
            round=t,
            proposed_ratio=list(ratio.counts),
            acquisition_used="grid",
            posterior_mean=None,
            posterior_std=None,
            score=score,
            incumbent=best_score,
        )
    best = max(records, key=lambda r: r[1])
    return best, log


@pytest.mark.parametrize(
    "env, ratio_max",
    [
        (PLANTED2, 20),
        (PLANTED3, 20),
        (PLANTED3, 4),
        ({"family": "planted", "theta_star": [0.9, 0.9, 0.8, 0.7, 0.6, 0.1]}, 20),
        ({"family": "planted", "theta_star": [0.9, 0.9, 0.8, 0.7, 0.6, 0.1]}, 7),
        (
            {
                "family": "shared-linear",
                "task_profile": ["primary", "useful", "harmful", "useful"],
                "dim": 4,
                "n_primary_train": 32,
                "n_aux": 32,
                "total_batches": 120,
            },
            20,
        ),
    ],
)
def test_no_stage2_matches_the_reference_grid_loop(env, ratio_max):
    widths = set()
    for seed in (0, 1, 2, 7):
        n_tasks = len(env.get("theta_star") or env["task_profile"])
        cfg = PipelineConfig(
            bandit=BanditConfig(n_tasks=n_tasks, n_rounds=40, rng_seed=seed),
            stage2=Stage2Config(n_samples=9, n_initial=3, ratio_max=ratio_max, rng_seed=seed),
            env=make_environment(env),
            mode="no_stage2",
        )
        report = run_pipeline(cfg)
        widths.add(len(report.selection.selected_task_ids))
        best, log = _reference_grid_stage2(
            make_environment(env, cfg.bandit.batches_per_round),
            report.selection.selected_task_ids,
            cfg.stage2,
        )
        assert report.stage2_log.records == log.records
        assert report.stage2_log.lines() == log.lines()
        assert (report.best_ratio, report.best_score) == best
    if len(env.get("theta_star", ())) == 6:
        assert len(widths) > 1  # the selection width varies with the seed


# ------------------------------------------------------- budget accounting

def test_budget_is_n_samples_plus_baseline():
    env = Faults(make_environment(PLANTED3))
    _run_with(env)  # make_config's n_samples is 8
    assert sum(len(seeds) for _, seeds in env.calls) == 8 + 1


def test_baseline_is_primary_only_and_always_runs():
    for mode in PIPELINE_MODES:
        env = Faults(make_environment(PLANTED3))
        report = _run_with(env, mode)
        counts = env.calls[0][0][0]
        assert counts[0] == 1
        assert all(c == 0 for c in counts[1:])
        assert 0.0 <= report.baseline_score <= 1.0


# ------------------------------------------------------------ determinism

def test_pipeline_is_deterministic():
    r1 = run_pipeline(make_config(seed=5))
    r2 = run_pipeline(make_config(seed=5))
    assert report_summary(r1) == report_summary(r2)
    assert r1.stage2_log.records == r2.stage2_log.records
    assert [x for x in r1.stage1_log.records] == [x for x in r2.stage1_log.records]


def test_pipeline_seed_changes_outcome():
    r1 = run_pipeline(make_config(seed=5))
    r2 = run_pipeline(make_config(seed=6))
    assert report_summary(r1) != report_summary(r2)


# ----------------------------------------------------------------- report

def test_report_summary_fields():
    report = run_pipeline(make_config())
    summary = report_summary(report)
    assert summary["schema_version"] == 1
    assert summary["mode"] == "full"
    assert summary["selected_tasks"][0] == 0
    assert len(summary["expected_utilities"]) == len(summary["selected_tasks"])
    assert summary["n_evaluations"] == 8
    assert isinstance(summary["best_ratio"], list)
    assert summary["config"] is None  # no normalized config attached here


def _failing(seed):
    """The planted environment of :func:`make_config` with an exception in
    the training under ``seed``."""
    return Faults(make_environment(PLANTED3), {seed: RuntimeError("meltdown")})


def test_run_aborted_carries_stage_logs():
    with pytest.raises(RunAborted) as info:  # the last round of the initial batch
        _run_with(_failing(derive_seed(0, "eval", 2)))
    assert set(info.value.stage_logs) == {"stage1", "stage2"}
    assert len(info.value.stage_logs["stage1"].records) == 60
    assert len(info.value.stage_logs["stage2"].records) == 0


def test_run_aborted_at_a_gp_round_keeps_the_earlier_records():
    with pytest.raises(RunAborted, match="at stage-2 round 4: meltdown") as info:
        _run_with(_failing(derive_seed(0, "eval", 4)))
    assert len(info.value.stage_logs["stage1"].records) == 60
    assert [r["round"] for r in info.value.stage_logs["stage2"].records] == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [1, 5, 8])
def test_no_stage2_exception_in_the_grid_batch_aborts_at_round_0(n):
    """The whole grid is one batch, so an exception at its ``n``-th ratio, or
    anywhere else in it, names round 0 and leaves the stage-2 log empty."""
    with pytest.raises(RunAborted, match="at stage-2 round 0: meltdown") as info:
        _run_with(_failing(derive_seed(0, "eval", n - 1)), "no_stage2")
    assert len(info.value.stage_logs["stage1"].records) == 60
    assert info.value.stage_logs["stage2"].records == []


_BASELINE_SEED = derive_seed(0, "baseline")


@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_the_baseline_leads_stage_2s_first_batch(mode):
    """``no_stage2`` trains the baseline and its grid in one call; the
    search modes train the baseline with the initial design, then one
    ratio per GP round."""
    env = Faults(make_environment(PLANTED3))
    report = _run_with(env, mode)
    n_samples, n_initial = 8, 3  # make_config's defaults
    widths = [len(seeds) for _, seeds in env.calls]
    if mode == "no_stage2":
        assert widths == [n_samples + 1]
    else:
        assert widths == [n_initial + 1] + [1] * (n_samples - n_initial)
    ratios, seeds = env.calls[0]
    assert seeds[0] == _BASELINE_SEED
    assert ratios[0] == (1, 0, 0)
    stage2_seeds = [seed for _, call_seeds in env.calls for seed in call_seeds][1:]
    assert stage2_seeds == [derive_seed(0, "eval", t) for t in range(n_samples)]
    (alone,) = PlantedBanditEnv(PLANTED3["theta_star"]).train_full(
        [MixingRatio((1, 0, 0))], [_BASELINE_SEED]
    )
    assert report.baseline_score == alone


@pytest.mark.parametrize("mode", PIPELINE_MODES)
@pytest.mark.parametrize(
    "seed, fault, message, retrained",
    [
        (_BASELINE_SEED, RuntimeError("meltdown"), "on the baseline run: meltdown", True),
        (derive_seed(0, "eval", 1), RuntimeError("meltdown"), "at stage-2 round 0: meltdown", True),
        (_BASELINE_SEED, math.nan, "on the baseline run: train_full returned nan", False),
    ],
    ids=["baseline-raises", "stage-2-ratio-raises", "baseline-nan"],
)
def test_a_failure_in_the_first_batch_names_its_place(mode, seed, fault, message, retrained):
    """A raising first batch retrains the baseline alone to tell whose
    failure it was; either way the stage-2 log is empty."""
    env = Faults(make_environment(PLANTED3), {seed: fault})
    with pytest.raises(RunAborted, match=f"environment failed {message}$") as info:
        _run_with(env, mode)
    assert info.value.stage_logs["stage2"].records == []
    expected = ([(1, 0, 0)], [_BASELINE_SEED])
    assert env.calls[1:] == ([expected] if retrained else [])


_PLAIN_TYPES = (dict, list, str, int, float, bool, type(None))
_FAMILIES = {"planted": TINY, "shared-linear": TINY_SHARED_LINEAR}


def _non_plain(value, path="$"):
    """Yield the path of every value whose exact type is not a plain JSON type."""
    if type(value) not in _PLAIN_TYPES:
        yield f"{path}: {type(value).__name__}"
    elif type(value) is dict:
        for key, item in value.items():
            if type(key) is not str:
                yield f"{path} key {key!r}: {type(key).__name__}"
            yield from _non_plain(item, f"{path}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from _non_plain(item, f"{path}[{i}]")


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_run_artifacts_hold_only_plain_values(mode, family):
    raw = {**_FAMILIES[family], "mode": mode}
    report = run_pipeline(to_pipeline_config(normalize(raw)))
    payloads = {"report": report_summary(report)}
    for kind, log in report.stage_logs.items():
        payloads[f"{kind}_header"] = make_header(kind, report.config)
        payloads[f"{kind}_records"] = log.records
    assert len(payloads["stage2_records"]) == 4
    assert len(payloads["stage1_records"]) == (0 if mode == "no_stage1" else 20)
    assert [p for name, v in payloads.items() for p in _non_plain(v, name)] == []


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_thompson_draws_explain_every_logged_choice(mode, family):
    """The draws redrawn from a run's stage-1 log have their first maximum,
    round by round, at the task the run trained."""
    raw = {**section(_FAMILIES[family], "bandit", n_rounds=150), "mode": mode}
    config = to_pipeline_config(normalize(raw))
    log = run_pipeline(config).stage1_log
    records = [json.loads(line) for line in log.lines()]  # as a reader of the file sees them
    draws = thompson_draws(records, config.bandit)
    assert draws.shape == (0 if mode == "no_stage1" else 150, config.bandit.n_tasks)
    assert np.argmax(draws, axis=1).tolist() == [rec["selected_arm"] for rec in records]


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_one_built_config_runs_repeatedly(mode, family):
    """The config holds a stateful environment, yet its second run is its
    first: stage 1 resets the environment and train_full is pure."""
    raw = {**_FAMILIES[family], "mode": mode}
    config = to_pipeline_config(raw)
    first, second = run_pipeline(config), run_pipeline(config)
    for kind, log in first.stage_logs.items():
        header = make_header(kind, config.normalized)
        assert second.stage_logs[kind].text(header) == log.text(header)
    assert report_summary(second) == report_summary(first)
    assert second.stage2_log.records == first.stage2_log.records
    assert second.selection == first.selection


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_a_run_at_the_largest_ratio_max_finishes(family):
    """Counts up to 2^31 are drawn, encoded and trained without building a
    cycle of their sum or leaving int64."""
    raw = section(_FAMILIES[family], "stage2", ratio_max=MAX_RATIO_MAX)
    report = run_pipeline(to_pipeline_config(raw))
    records = report.stage2_log.records
    assert len(records) == 4
    assert all(math.isfinite(r["score"]) for r in records)
    assert max(c for r in records for c in r["proposed_ratio"]) > 2**20


# -------------------------------------------------------------- artifacts

def test_write_outputs_produces_all_artifacts(tmp_path):
    report = run_pipeline(make_config())
    paths = write_outputs(report, tmp_path / "run", grid_size=50)
    assert set(paths) == set(RUN_FILES) == {
        "report.json", "stage1.log.jsonl", "stage2.log.jsonl", "utilities.csv"
    }
    for p in paths.values():
        assert p.exists()

    payload = json.loads(paths["report.json"].read_text())
    assert payload == report_summary(report)

    header, records = read_jsonl(paths["stage1.log.jsonl"])
    assert header["kind"] == "stage1"
    assert header["schema_version"] == SCHEMA_VERSION == 5
    assert set(header) == {"schema_version", "kind", "config"}
    assert len(records) == 60

    header2, records2 = read_jsonl(paths["stage2.log.jsonl"])
    assert header2["kind"] == "stage2"
    assert len(records2) == 8

    lines = paths["utilities.csv"].read_text().strip().split("\n")
    assert lines[0] == "task_id,theta,density"
    assert len(lines) == 1 + 3 * 50


def test_write_outputs_is_byte_deterministic(tmp_path):
    report = run_pipeline(make_config(seed=3))
    p1 = write_outputs(report, tmp_path / "a")
    p2 = write_outputs(report, tmp_path / "b")
    for key in p1:
        assert p1[key].read_bytes() == p2[key].read_bytes()


def test_full_mode_drops_harmful_task_from_high_count():
    """On a sharply planted environment the selected ratio should not load
    the harmful task heavily; full mode's best configuration beats the
    all-task grid's worst case."""
    report = run_pipeline(make_config(n_rounds=120, n_samples=12, n_initial=4, seed=1))
    best = report.best_score
    assert best >= report.baseline_score - 0.05
