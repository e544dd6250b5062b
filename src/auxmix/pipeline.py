"""End-to-end orchestration of the two-stage run plus its ablation modes.

Mode ``full`` runs bandit task selection and then GP ratio search over the
survivors.  Mode ``no_stage1`` skips selection and searches ratios over all
tasks.  Mode ``no_stage2`` keeps selection but replaces the GP with a
manually enumerated ratio grid of the same evaluation budget.  Every mode
also trains the primary-only baseline, as the first member of stage 2's
first batch; it is the one evaluation outside the stage-2 budget.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bandit import (
    DENSITY_GRID_SIZE,
    BanditConfig,
    Environment,
    TaskSelection,
    initial_arms,
    run_stage1,
    select_tasks,
    utility_density_table,
)
from .mixing import MixingRatio, Stage2Config, run_stage2
from .runlog import RunAborted, RunLog, SettingError, derive_seed, make_header, require_work

PIPELINE_MODES = ("full", "no_stage1", "no_stage2")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs: stage knobs, mode, and the environment.

    ``env`` keeps state, but no run reads what an earlier one left: stage 1
    resets it and ``train_full`` is pure, so one config reruns identically.
    """

    bandit: BanditConfig
    stage2: Stage2Config
    env: Environment
    mode: str = "full"
    normalized: dict | None = None

    def __post_init__(self):
        if self.env.n_tasks != self.bandit.n_tasks:
            raise SettingError(
                "bandit.n_tasks",
                f"disagrees with the environment: config says {self.bandit.n_tasks}, "
                f"environment defines {self.env.n_tasks} tasks",
            )
        if self.mode not in PIPELINE_MODES:
            raise SettingError("mode", f"mode must be one of {PIPELINE_MODES}, got {self.mode!r}")
        # The stage-2 trainings and the baseline; a planted environment trains no batches.
        work = {"environment.total_batches": getattr(self.env, "total_batches", 0)}
        require_work({**work, "stage2.n_samples": self.stage2.n_samples + 1})


@dataclass(frozen=True)
class PipelineReport:
    """Final outcome of one pipeline run, with both stage logs attached."""

    mode: str
    selection: TaskSelection
    best_ratio: MixingRatio
    best_score: float
    baseline_score: float
    stage1_log: RunLog
    stage2_log: RunLog
    config: dict | None

    @property
    def stage_logs(self) -> dict[str, RunLog]:
        """Both stage logs by kind, as :class:`RunAborted` carries them."""
        return {"stage1": self.stage1_log, "stage2": self.stage2_log}


def manual_ratio_grid(n_aux: int, budget: int, ratio_max: int) -> list[MixingRatio]:
    """Deterministic hand-tuning grid with exactly ``budget`` entries.

    One auxiliary: primary fixed at 1, auxiliary count walking 1, 2, ... up
    the budget (capped at ``ratio_max``).  Two or more auxiliaries: primary
    fixed at 10 with auxiliary counts drawn from the lattice {0, 5, 10, 20}
    in lexicographic order, cycled or truncated to the budget.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n_aux == 1:
        return [MixingRatio((1, min(j + 1, ratio_max))) for j in range(budget)]
    levels = [lv for lv in (0, 5, 10, 20) if lv <= ratio_max]
    lattice = list(itertools.product(levels, repeat=n_aux))
    primary = min(10, ratio_max)
    return [MixingRatio((primary, *lattice[j % len(lattice)])) for j in range(budget)]


def _all_task_selection(config: BanditConfig) -> TaskSelection:
    """Selection covering every task (primary 0 first), beliefs from the priors."""
    prior = select_tasks(*initial_arms(config), config)
    return replace(prior, selected_task_ids=tuple(range(config.n_tasks)))


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute one full run and return its report.

    The primary-only baseline always trains in stage 2's first
    ``train_full`` call, under ``derive_seed(stage2.rng_seed, "baseline")``,
    so it is comparable across modes and seeds.  An environment failure
    raises :class:`RunAborted` with ``stage_logs`` holding both stage logs
    up to the failure (a stage that never started has an empty log).
    """
    env, stage1_log = config.env, RunLog()
    try:
        if config.mode == "no_stage1":
            selection = _all_task_selection(config.bandit)
        else:
            selection, stage1_log = run_stage1(env, config.bandit)
        task_ids = selection.selected_task_ids
        proposals = None
        if config.mode == "no_stage2":
            stage2 = config.stage2
            grid = manual_ratio_grid(len(task_ids) - 1, stage2.n_samples, stage2.ratio_max)
            proposals = [[(ratio, "grid", None, None) for ratio in grid]]
        best_ratio, best_score, stage2_log, baseline_score = run_stage2(
            env, selection, config.stage2, proposals,
            baseline_seed=derive_seed(config.stage2.rng_seed, "baseline"),
        )
    except RunAborted as exc:  # the failing stage filled in its own log
        exc.stage_logs = {"stage1": stage1_log, "stage2": RunLog(), **exc.stage_logs}
        raise

    return PipelineReport(
        mode=config.mode,
        selection=selection,
        best_ratio=best_ratio,
        best_score=best_score,
        baseline_score=baseline_score,
        stage1_log=stage1_log,
        stage2_log=stage2_log,
        config=config.normalized,
    )


def report_summary(report: PipelineReport) -> dict:
    """The report.json payload."""
    return {
        "schema_version": 1,
        "mode": report.mode,
        "selected_tasks": list(report.selection.selected_task_ids),
        "expected_utilities": list(report.selection.expected_utilities),
        "best_ratio": list(report.best_ratio.counts),
        "best_score": report.best_score,
        "baseline_score": report.baseline_score,
        "n_evaluations": len(report.stage2_log),
        "config": report.config,
    }


def density_csv(table: tuple[np.ndarray, np.ndarray]) -> str:
    """A :func:`utility_density_table` as ``task_id,theta,density`` rows."""
    theta, density = table
    # The dialect csv.writer emits for ints and float reprs: no quoting, CRLF.
    # Each theta is formatted once, as the ",theta," between a row's two cells.
    columns = [f",{t!r}," for t in theta.tolist()]
    rows = [
        "\r\n".join(map("".join, zip(itertools.repeat(str(task_id)), columns, map(repr, row))))
        for task_id, row in enumerate(density.tolist())
    ]
    return "\r\n".join(["task_id,theta,density", *rows, ""])


# The files of a run directory.
RUN_FILES = ("stage1.log.jsonl", "stage2.log.jsonl", "report.json", "utilities.csv")


def run_files(
    outcome: PipelineReport | RunAborted, config: dict, grid_size: int | None = None
) -> dict[str, str]:
    """The text of each file a run writes, by name: the one renderer of a run
    directory, which ``auxmix run`` writes and ``auxmix replay`` checks.

    A finished run's report, or the :class:`RunAborted` that ended the run,
    gives both stage logs; a report adds ``report.json`` and, given
    ``grid_size``, the density CSV.  Log headers carry ``config``."""
    files = {
        f"{kind}.log.jsonl": log.text(make_header(kind, config))
        for kind, log in outcome.stage_logs.items()
    }
    if isinstance(outcome, PipelineReport):
        files["report.json"] = json.dumps(report_summary(outcome), indent=2, sort_keys=True) + "\n"
        if grid_size is not None:
            table = utility_density_table(outcome.selection.final_arms, grid_size)
            files["utilities.csv"] = density_csv(table)
    return files


def write_run_files(files: dict[str, str], out_dir: str | Path) -> dict[str, Path]:
    """The one writer of run directories: write a :func:`run_files` render and
    remove each run file it lacks that an earlier run left (under ``--force``).
    Other files stay.  Returns the path of each written file by name.  Each
    file goes to a temporary sibling, renamed into place once every write
    succeeded, so a failure (a run file's path that is a directory fails
    first) replaces nothing and leaves no temporary behind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:
        if (out / name).is_dir():
            raise IsADirectoryError(f"{out / name} is a directory")
    temps = {name: out / f".{name}.tmp" for name in files}
    try:
        for name, text in files.items():
            temps[name].write_text(text, encoding="utf-8", newline="")
        for name, temp in temps.items():
            os.replace(temp, out / name)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    for name in set(RUN_FILES) - set(files):
        (out / name).unlink(missing_ok=True)
    return {name: out / name for name in files}


def write_outputs(
    report: PipelineReport, out_dir: str | Path, grid_size: int = DENSITY_GRID_SIZE
) -> dict[str, Path]:
    """Write a finished run's four files; returns their paths by name."""
    return write_run_files(run_files(report, report.config, grid_size), out_dir)
