"""The benchmark's workloads: one unit of work each, its output checks and its quality.

A unit is one pipeline run under its own seed.  ``planted-search`` and
``linear-grid`` call ``run_pipeline`` in process; ``cli-replay`` calls the
command-line front end twice, ``auxmix run`` then ``auxmix replay`` of the
stage-1 log it wrote.  Every unit checks the program's outputs and returns
the problems it found instead of raising, so the caller can count failures.

Program functions are always looked up through their module at call time
(``pipeline.run_pipeline``, ``cli.main``), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from auxmix import cli, config, pipeline, runlog

STAGE1_LOG = "stage1.log.jsonl"
STAGE2_LOG = "stage2.log.jsonl"

CRITERION_07_ENVIRONMENT = {
    "family": "shared-linear",
    "task_profile": ["primary", "useful", "useful", "useful", "harmful", "harmful", "harmful"],
    "n_primary_train": 48,
    "primary_label_noise": 0.8,
    "n_aux": 256,
    "useful_shift": 0.05,
    "harmful_scale": 1.0,
    "total_batches": 500,
}


@dataclass(frozen=True)
class Workload:
    """A named run config (without seeds) and the way one unit executes it."""

    name: str
    raw_config: dict
    via_cli: bool
    dominant: str

    @property
    def theta_star(self) -> list[float] | None:
        env = self.raw_config["environment"]
        return env["theta_star"] if env["family"] == "planted" else None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="planted-search",
            raw_config={
                "mode": "full",
                "environment": {"family": "planted", "theta_star": [0.8, 0.9, 0.9, 0.1, 0.1]},
            },
            via_cli=False,
            dominant="mixing.propose_next and gp.fit",
        ),
        Workload(
            name="linear-grid",
            raw_config={"mode": "no_stage2", "environment": CRITERION_07_ENVIRONMENT},
            via_cli=False,
            dominant="environments.train_full and environments.step",
        ),
        Workload(
            name="cli-replay",
            raw_config={
                "mode": "full",
                "environment": {
                    "family": "planted",
                    "theta_star": [0.8, 0.9, 0.85, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1, 0.1],
                },
                "bandit": {"n_rounds": 2000},
                "stage2": {"n_samples": 6, "n_initial": 5},
            },
            via_cli=True,
            dominant="runlog, bandit, pipeline.write_outputs and cli.replay",
        ),
    )
}


def seeded_config(raw: dict, run_seed: int) -> dict:
    """``raw`` with both stage seeds set to ``run_seed``."""
    out = json.loads(json.dumps(raw))
    for section in ("bandit", "stage2"):
        out.setdefault(section, {})["rng_seed"] = run_seed
    return out


def planted_value(theta: list[float], counts: list[int]) -> float:
    """Noise-free planted score of a full-width ratio, ``0.5 + shares . (theta - 0.5)``."""
    total = sum(counts)
    return 0.5 + sum(c * (t - 0.5) for c, t in zip(counts, theta)) / total


def planted_optimum(theta: list[float], ratio_max: int) -> tuple[float, tuple[int, ...]]:
    """Best noise-free planted score over the integer ratio grid, and a ratio attaining it.

    The score is a ratio of two linear functions of the counts, so its
    maximum over the box (primary in [1, ratio_max], auxiliaries in
    [0, ratio_max]) sits at a vertex.  At the optimum an auxiliary is at
    ``ratio_max`` exactly when its theta beats the optimal score, so only
    the prefixes of the auxiliaries sorted by theta need checking, with
    the primary at either end of its range.
    """
    n = len(theta)
    order = sorted(range(1, n), key=lambda k: (-theta[k], k))
    best: tuple[float, tuple[int, ...]] | None = None
    for primary in (1, ratio_max):
        for j in range(n):
            counts = [0] * n
            counts[0] = primary
            for k in order[:j]:
                counts[k] = ratio_max
            value = planted_value(theta, counts)
            if best is None or value > best[0]:
                best = (value, tuple(counts))
    return best


@dataclass
class UnitResult:
    """What one unit measured, produced and found wrong."""

    run_s: float
    replay_s: float | None = None
    problems: list[str] = field(default_factory=list)
    best_score: float = math.nan
    gain: float = math.nan
    regret: float | None = None
    stage1_rounds: int = 0
    distinct_frac: float = math.nan
    log_bytes: int = 0
    output_bytes: int = 0
    outputs: dict[str, str] = field(default_factory=dict)  # file name -> sha256 of its bytes


def _is_score(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_outputs(
    summary: dict, stage1: list[dict], stage2: list[dict], n_samples: int, ratio_max: int
) -> list[str]:
    """Problems with one run's report and stage records; empty when all checks hold."""
    problems = []
    scores = [r["score"] for r in stage2]
    if summary["n_evaluations"] != n_samples or len(stage2) != n_samples:
        problems.append(
            f"{summary['n_evaluations']} evaluations and {len(stage2)} stage-2 records "
            f"for n_samples={n_samples}"
        )
    if not scores or summary["best_score"] != max(scores):
        problems.append(f"best_score {summary['best_score']} is not the maximum evaluation score")
    if any(summary["best_score"] < r["incumbent"] for r in stage2):
        problems.append("best_score is below a logged incumbent")
    width = len(summary["selected_tasks"])
    for ratio in [r["proposed_ratio"] for r in stage2] + [summary["best_ratio"]]:
        if len(ratio) != width or ratio[0] < 1 or any(not 0 <= c <= ratio_max for c in ratio):
            problems.append(f"ratio {ratio} outside [0, {ratio_max}] or primary < 1")
    values = (
        scores
        + [r["incumbent"] for r in stage2]
        + [r["metric"] for r in stage1]
        + [summary["best_score"], summary["baseline_score"]]
    )
    bad = [v for v in values if not _is_score(v)]
    if bad:
        problems.append(f"{len(bad)} scores not finite in [0, 1], first {bad[0]!r}")
    return problems


def _check_roundtrip(path: Path, kind: str, config_dict: dict, records: list[dict] | None):
    """Read a stage log back; return its records and any problems found."""
    try:
        header, got = runlog.read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [], [f"{path.name} does not read back: {exc}"]
    problems = []
    if header.get("kind") != kind or header.get("config") != config_dict:
        problems.append(f"{path.name} header does not match the run")
    if records is not None and got != records:
        problems.append(f"{path.name} records do not round-trip")
    return got, problems


def _inspect_run_dir(
    result: UnitResult, workload: Workload, out: Path, expected: dict | None = None
) -> None:
    """Digest, check and score the run directory ``out``, filling ``result``.

    ``expected`` maps each stage to the records the run held in memory,
    which its log must read back exactly.
    """
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        result.outputs[path.name] = hashlib.sha256(data).hexdigest()
        result.output_bytes += len(data)
        if path.name in (STAGE1_LOG, STAGE2_LOG):
            result.log_bytes += len(data)
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))
    records = {}
    for kind in ("stage1", "stage2"):
        records[kind], problems = _check_roundtrip(
            out / f"{kind}.log.jsonl", kind, summary["config"], (expected or {}).get(kind)
        )
        result.problems += problems
    stage1, stage2 = records["stage1"], records["stage2"]
    ratio_max = summary["config"]["stage2"]["ratio_max"]
    result.problems += check_outputs(
        summary, stage1, stage2, summary["config"]["stage2"]["n_samples"], ratio_max
    )

    result.best_score = summary["best_score"]
    result.gain = summary["best_score"] - summary["baseline_score"]
    result.stage1_rounds = len(stage1)
    ratios = {tuple(r["proposed_ratio"]) for r in stage2}
    result.distinct_frac = len(ratios) / len(stage2) if stage2 else math.nan
    theta = workload.theta_star
    if theta is not None:
        full = [0] * len(theta)
        for pos, task in enumerate(summary["selected_tasks"]):
            full[task] = summary["best_ratio"][pos]
        result.regret = planted_optimum(theta, ratio_max)[0] - planted_value(theta, full)


def run_unit(workload: Workload, run_seed: int, workdir: Path, paused) -> UnitResult:
    """Execute one unit of ``workload`` under ``run_seed`` inside ``workdir``.

    ``paused`` is a context manager factory that suspends tracing around
    the benchmark's own checks, so only the program's work is traced.
    """
    out = workdir / f"run-{run_seed}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        if workload.via_cli:
            return _run_cli_unit(workload, run_seed, workdir, out, paused)
        return _run_in_memory_unit(workload, run_seed, out, paused)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _run_in_memory_unit(workload: Workload, run_seed: int, out: Path, paused) -> UnitResult:
    normalized = config.normalize(seeded_config(workload.raw_config, run_seed))
    cfg = config.to_pipeline_config(normalized)
    start = time.perf_counter()
    report = pipeline.run_pipeline(cfg)
    result = UnitResult(run_s=time.perf_counter() - start)
    with paused():
        # The program's own writer; a one-point density grid keeps the CSV out of the way.
        pipeline.write_outputs(report, out, grid_size=1)
        expected = {"stage1": report.stage1_log.records, "stage2": report.stage2_log.records}
        _inspect_run_dir(result, workload, out, expected)
        result.output_bytes = 0  # written for the check, not by the workload
    return result


def config_path(workdir: Path) -> Path:
    return workdir / "config.yaml"


def write_config(workload: Workload, workdir: Path) -> Path:
    """Write the workload's config file (JSON is valid YAML) for ``auxmix run`` and set-up."""
    path = config_path(workdir)
    path.write_text(json.dumps(workload.raw_config, indent=2) + "\n", encoding="utf-8")
    return path


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _run_cli_unit(
    workload: Workload, run_seed: int, workdir: Path, out: Path, paused
) -> UnitResult:
    argv = ["run", str(config_path(workdir)), "--out", str(out)]
    argv += ["--set", f"bandit.rng_seed={run_seed}", "--set", f"stage2.rng_seed={run_seed}"]
    start = time.perf_counter()
    code, text = _cli(argv)
    result = UnitResult(run_s=time.perf_counter() - start)
    if code != 0:
        result.problems.append(f"auxmix run exited {code}: {text.strip()}")
        return result
    start = time.perf_counter()
    code, text = _cli(["replay", str(out / STAGE1_LOG)])
    result.replay_s = time.perf_counter() - start
    if code != 0:
        result.problems.append(f"auxmix replay exited {code}: {text.strip()}")
    with paused():
        _inspect_run_dir(result, workload, out)
    return result
