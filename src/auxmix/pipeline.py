"""End-to-end orchestration of the two-stage run plus its ablation modes.

Mode ``full`` runs bandit task selection and then GP ratio search over the
survivors.  Mode ``no_stage1`` skips selection and searches ratios over all
tasks.  Mode ``no_stage2`` keeps selection but replaces the GP with a
manually enumerated ratio grid of the same evaluation budget.  Every mode
also trains the primary-only baseline, which is the one evaluation outside
the stage-2 budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bandit import (
    BanditConfig,
    TaskSelection,
    initial_arms,
    run_stage1,
    select_tasks,
    utility_density_table,
)
from .environments import make_environment
from .mixing import (
    EvaluationRecord,
    MixingRatio,
    Stage2Config,
    run_stage2,
    train_scores,
)
from .runlog import RunAborted, RunLog, SettingError, derive_seed, make_header

PIPELINE_MODES = ("full", "no_stage1", "no_stage2")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs: stage knobs, mode, and the environment recipe."""

    bandit: BanditConfig
    stage2: Stage2Config
    environment: dict
    mode: str = "full"
    normalized: dict | None = None

    def __post_init__(self):
        if self.mode not in PIPELINE_MODES:
            raise SettingError("mode", f"mode must be one of {PIPELINE_MODES}, got {self.mode!r}")
        if self.bandit.primary_task_id != 0:
            raise SettingError(
                "bandit.primary_task_id",
                "the synthetic environments define task 0 as primary; "
                f"primary_task_id must be 0, got {self.bandit.primary_task_id}"
            )


@dataclass(frozen=True)
class PipelineReport:
    """Final outcome of one pipeline run, with both stage logs attached."""

    mode: str
    selection: TaskSelection
    best_ratio: MixingRatio
    best_score: float
    baseline_score: float
    evaluations: tuple[EvaluationRecord, ...]
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
    if n_aux == 0:
        ratios = [MixingRatio((min(j + 1, ratio_max),)) for j in range(budget)]
        return ratios
    if n_aux == 1:
        return [MixingRatio((1, min(j + 1, ratio_max))) for j in range(budget)]
    levels = [lv for lv in (0, 5, 10, 20) if lv <= ratio_max]
    lattice = [[]]
    for _ in range(n_aux):
        lattice = [combo + [lv] for combo in lattice for lv in levels]
    primary = min(10, ratio_max)
    ratios = []
    for j in range(budget):
        combo = lattice[j % len(lattice)]
        ratios.append(MixingRatio(tuple([primary] + combo)))
    return ratios


def _all_task_selection(config: BanditConfig) -> TaskSelection:
    """Selection covering every task (primary first), beliefs from the priors."""
    aux = [k for k in range(config.n_tasks) if k != config.primary_task_id]
    prior = select_tasks(*initial_arms(config), config)
    return replace(prior, selected_task_ids=tuple([config.primary_task_id] + aux))


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute one full run and return its report.

    The baseline (primary-only ratio) is always trained, under a seed
    derived from ``(stage2.rng_seed, "baseline")``, so stage-2 scores and
    the baseline are comparable across modes and seeds.

    Raises
    ------
    RunAborted
        On environment failure, with ``stage_logs`` holding both stage logs
        up to the failure (a stage that never started has an empty log).
    """
    env = make_environment(config.environment, config.bandit.batches_per_round)
    if env.n_tasks != config.bandit.n_tasks:
        raise ValueError(
            f"environment has {env.n_tasks} tasks but bandit config says {config.bandit.n_tasks}"
        )

    stage1_log = RunLog()
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
        best, records, stage2_log = run_stage2(env, selection, config.stage2, proposals)
        (baseline_score,) = train_scores(
            env,
            [MixingRatio(tuple([1] + [0] * (len(task_ids) - 1)))],
            task_ids,
            [derive_seed(config.stage2.rng_seed, "baseline")],
            ["on the baseline run"],
            stage2_log,
        )
    except RunAborted as exc:  # the failing stage filled in its own log
        exc.stage_logs = {"stage1": stage1_log, "stage2": RunLog(), **exc.stage_logs}
        raise

    return PipelineReport(
        mode=config.mode,
        selection=selection,
        best_ratio=best.ratio,
        best_score=best.score,
        baseline_score=baseline_score,
        evaluations=tuple(records),
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
        "n_evaluations": len(report.evaluations),
        "config": report.config,
    }


def write_stage_logs(stage_logs: dict[str, RunLog], config: dict, out: Path) -> dict[str, Path]:
    """The one writer of run logs, of a finished run (``PipelineReport.stage_logs``)
    or an aborted one (``RunAborted.stage_logs``): each ``<kind>.log.jsonl``
    under a ``config`` header.  Returns the paths keyed ``<kind>_log``."""
    return {
        f"{kind}_log": log.write_jsonl(out / f"{kind}.log.jsonl", make_header(kind, config))
        for kind, log in stage_logs.items()
    }


def write_density_csv(table: tuple[np.ndarray, np.ndarray], path: str | Path) -> Path:
    """Write a :func:`utility_density_table` as ``task_id,theta,density`` rows."""
    theta, density = table
    thetas = list(map(repr, theta.tolist()))  # formatted once for every task's rows
    # The dialect csv.writer emits for ints and float reprs: no quoting, CRLF.
    rows = (
        f"{task_id},{t},{d!r}\r\n"
        for task_id, row in enumerate(density.tolist())
        for t, d in zip(thetas, row)
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("task_id,theta,density\r\n" + "".join(rows), encoding="utf-8", newline="")
    return path


def write_outputs(
    report: PipelineReport, out_dir: str | Path, grid_size: int = 1000
) -> dict[str, Path]:
    """Persist report.json, both stage logs, and the density CSV.

    Returns the path of each artifact keyed by name.  Output is
    deterministic byte for byte given the report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {"report": out / "report.json"}
    paths["report"].write_text(
        json.dumps(report_summary(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths.update(write_stage_logs(report.stage_logs, report.config, out))
    table = utility_density_table(report.selection.final_arms, grid_size)
    paths["utilities"] = write_density_csv(table, out / "utilities.csv")
    return paths
