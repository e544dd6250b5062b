"""Command-line behavior: exit codes, artifacts, replay, and fan-out."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
import unittest.mock as mock
import warnings
from pathlib import Path

import pytest
import yaml

import auxmix
from auxmix.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from auxmix.config import load_config, normalize, to_pipeline_config
from auxmix.environments import PlantedBanditEnv
from auxmix.pipeline import density_csv, run_pipeline
from auxmix.bandit import MAX_DENSITY_GRID_SIZE, BanditConfig, belief_path, thompson_draws
from auxmix.bandit import utility_density_table
from auxmix.runlog import SCHEMA_VERSION, RunAborted, canonical_dumps, derive_seed, read_jsonl
from configs import DIVERGING, LINEAR, TINY, section
from faults import patched

SMALL_CONFIG = """\
mode: full
environment:
  family: planted
  theta_star: [0.9, 0.1]
bandit:
  n_rounds: 8
stage2:
  n_samples: 4
  n_initial: 2
  pool_size: 64
"""


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "small.yaml"
    p.write_text(SMALL_CONFIG, encoding="utf-8")
    return p


def run_cli(*argv):
    return main([str(a) for a in argv])


# ------------------------------------------------------------- start-up

def _python(code: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(auxmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=120,
    )


@pytest.mark.parametrize("module, package", [("auxmix.cli", "scipy"), ("auxmix.runlog", "numpy")])
def test_importing_a_module_loads_no_package_it_does_not_use(module, package):
    """SciPy is a test-only oracle; the package's numerics are NumPy's.  The
    package root imports nothing, so the run-log layer loads no NumPy."""
    proc = _python(
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_process_pool():
    """Only ``run --seeds`` uses the process pool, so only it imports it."""
    proc = _python(
        "import sys, auxmix.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("scipy was not blocked")
"""


def test_run_and_replay_need_no_scipy(tmp_path):
    (tmp_path / "small.yaml").write_text(SMALL_CONFIG, encoding="utf-8")
    proc = _python(
        BLOCK_SCIPY
        + "from auxmix.cli import main\n"
        + "codes = [main(['run', 'small.yaml', '--out', 'run', '--grid-size', '10'])]\n"
        + "codes += [main(['replay', p]) for p in ('run', 'run/stage1.log.jsonl', 'run/stage2.log.jsonl')]\n"
        + "print(codes)\n",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0]"


# --------------------------------------------------------- validate-config

def test_validate_config_prints_normalized_yaml(config_file, capsys):
    assert run_cli("validate-config", config_file) == EXIT_OK
    out = capsys.readouterr().out
    parsed = yaml.safe_load(out)
    assert normalize(parsed) == parsed
    assert parsed["bandit"]["n_tasks"] == 2


@pytest.mark.parametrize(
    "text, says",
    [
        (b"bandit:\n  gamma: 7\n", "config key 'bandit.gamma'"),
        (b"environment: []\n", "config key 'environment'"),
        (b"bandit:\n  primary_task_id: 0\n", "config key 'bandit.primary_task_id'"),
        (b"bandit:\n  n_rounds: 1000000000000\n", "config key 'bandit.n_rounds'"),
        (b"environment:\n  family: planted\nstage2:\n  n_samples: 10000000\n",
         "config key 'stage2.n_samples'"),
        (b"environment:\n  family: shared-linear\n  batch_size: 100000000\n",
         "config key 'environment.batch_size'"),
        (b"stage2:\n  ratio_max: 1" + b"0" * 30 + b"\n", "config key 'stage2.ratio_max'"),
        (b"\xff\xfe\x00bad", "config file '{path}': cannot read it: "),
    ],
    ids=["gamma", "list-environment", "primary-task-id", "n-rounds", "n-samples", "batch-size",
         "ratio-max", "non-utf8"],
)
def test_validate_config_rejects_bad_key(tmp_path, capsys, text, says):
    """A config that cannot run is refused when loaded: exit 2, naming the key or file at fault."""
    p = tmp_path / "bad.yaml"
    p.write_bytes(text)
    assert run_cli("validate-config", p) == EXIT_USAGE
    assert says.format(path=p) in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [(key, "1.0e+308") for key in ("useful_shift", "harmful_scale", "primary_label_noise",
                                   "aux_label_noise")]
    + [(key, str(10**12)) for key in ("n_aux", "n_primary_train", "n_primary_heldout", "dim")],
)
def test_validate_config_rejects_shared_linear_data_it_cannot_build(tmp_path, capsys, key, value):
    """Settings whose data overflow, or would exceed MAX_DATA_FLOATS, are
    config errors naming their key, under any warnings filter; a size over
    the budget is rejected before anything is allocated."""
    p = tmp_path / "huge.yaml"
    p.write_text(f"environment:\n  family: shared-linear\n  {key}: {value}\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("validate-config", p) == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"config key 'environment.{key}'" in capsys.readouterr().err
    assert peak < 2**24


def test_validate_config_missing_file(tmp_path, capsys):
    assert run_cli("validate-config", tmp_path / "none.yaml") == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_validate_config_of_an_empty_file_prints_the_defaults(tmp_path, capsys):
    p = tmp_path / "empty.yaml"
    p.write_text("", encoding="utf-8")
    assert run_cli("validate-config", p) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out) == normalize({})


# ----------------------------------------------------------------- run

def test_run_writes_all_artifacts(config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("run", config_file, "--out", out_dir) == EXIT_OK
    for name in ("report.json", "stage1.log.jsonl", "stage2.log.jsonl", "utilities.csv"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert "best_ratio" in stdout and "report.json" in stdout

    report = json.loads((out_dir / "report.json").read_text())
    assert report["mode"] == "full"
    assert report["selected_tasks"][0] == 0
    assert report["n_evaluations"] == 4
    assert report["config"]["schema_version"] == 1


def test_run_mode_flag_overrides_config(config_file, tmp_path):
    out_dir = tmp_path / "ablate"
    assert run_cli("run", config_file, "--out", out_dir, "--mode", "no_stage1") == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["mode"] == "no_stage1"
    assert report["config"]["mode"] == "no_stage1"
    assert report["selected_tasks"] == [0, 1]


def test_run_set_overrides_apply(config_file, tmp_path):
    out_dir = tmp_path / "short"
    assert (
        run_cli("run", config_file, "--out", out_dir, "--set", "bandit.n_rounds=3") == EXIT_OK
    )
    lines = (out_dir / "stage1.log.jsonl").read_text().strip().split("\n")
    assert len(lines) == 1 + 3


def test_run_bad_override_is_usage_error(config_file, tmp_path, capsys):
    rc = run_cli("run", config_file, "--out", tmp_path / "x", "--set", "bandit.gamma=2.0")
    assert rc == EXIT_USAGE
    assert "bandit.gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, says",
    [
        ("stage2.n_samples=[", "'stage2.n_samples': unparseable override value"),
        ("bandit..gamma=0.1", "'bandit..gamma': override key must be non-empty"),
        ("novalue", "expected KEY=VALUE, got 'novalue'"),  # argparse's own exit
        ("=1", "empty key in override '=1'"),
        ("stage2.n_samples=1e1", "'stage2.n_samples': expected an integer, got '1e1'"),
    ],
)
def test_run_override_that_cannot_be_applied_is_usage_error(
    config_file, tmp_path, capsys, override, says
):
    try:
        rc = run_cli("run", config_file, "--out", tmp_path / "x", "--set", override)
    except SystemExit as exc:
        rc = exc.code
    assert rc == EXIT_USAGE
    assert says in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "override", ["total_batches=0", "learning_rate=-1", "n_primary_heldout=1"]
)
def test_run_bad_shared_linear_override_is_usage_error(tmp_path, capsys, override):
    config_file = tmp_path / "linear.yaml"
    config_file.write_text("environment:\n  family: shared-linear\n", encoding="utf-8")
    out_dir = tmp_path / "x"
    rc = run_cli("run", config_file, "--out", out_dir, "--set", f"environment.{override}")
    assert rc == EXIT_USAGE
    assert f"environment.{override.split('=')[0]}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "override, key",
    [
        ("environment.theta_star=[0.9]", "environment.theta_star"),
        ("environment.task_profile=[primary]", "environment.task_profile"),
    ],
)
def test_run_single_task_environment_names_its_task_list(tmp_path, capsys, override, key):
    family = "planted" if "theta_star" in key else "shared-linear"
    config_file = tmp_path / "one-task.yaml"
    config_file.write_text(f"environment:\n  family: {family}\n", encoding="utf-8")
    out_dir = tmp_path / "x"
    assert run_cli("run", config_file, "--out", out_dir, "--set", override) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "bandit.n_tasks" not in err
    assert not out_dir.exists()


def test_run_refuses_non_empty_dir_without_force(config_file, tmp_path, capsys):
    out_dir = tmp_path / "busy"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("data", encoding="utf-8")
    assert run_cli("run", config_file, "--out", out_dir) == EXIT_USAGE
    assert "--force" in capsys.readouterr().err
    assert run_cli("run", config_file, "--out", out_dir, "--force") == EXIT_OK


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("seeds", [[], ["--seeds", "0..1"]], ids=["one-run", "seeds"])
def test_run_out_at_or_under_a_regular_file_is_usage_error(
    config_file, tmp_path, capsys, monkeypatch, under, seeds
):
    blocker = tmp_path / "taken"
    blocker.write_text("data", encoding="utf-8")
    out = blocker / "run" if under else blocker
    if not seeds:  # the check comes before the pipeline starts
        monkeypatch.setattr("auxmix.cli.run_pipeline", mock.Mock(side_effect=AssertionError))
    for force in ([], ["--force"]):
        assert run_cli("run", config_file, "--out", out, *seeds, *force) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: cannot write {out}" in err
        assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "data"


def test_run_write_failure_is_runtime_error(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "stage2.log.jsonl").mkdir(parents=True)  # a directory where a run file goes
    assert run_cli("run", config_file, "--out", out, "--force") == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"error: cannot write {out}" in err
    assert "Traceback" not in err


def test_run_write_failure_leaves_the_earlier_run_whole(config_file, tmp_path, capsys):
    """A rerun that cannot write one file replaces none of the earlier run's
    files and leaves no temporary behind."""
    out = tmp_path / "r"
    assert run_cli("run", config_file, "--out", out) == EXIT_OK
    kept = ("stage1.log.jsonl", "report.json", "utilities.csv")
    before = {name: (out / name).read_bytes() for name in kept}
    (out / "stage2.log.jsonl").unlink()
    (out / "stage2.log.jsonl").mkdir()
    rerun = ("run", config_file, "--out", out, "--force", "--set", "bandit.rng_seed=5")
    assert run_cli(*rerun) == EXIT_RUNTIME
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in kept} == before
    assert sorted(p.name for p in out.iterdir()) == sorted([*kept, "stage2.log.jsonl"])
    (out / "stage2.log.jsonl").rmdir()
    assert run_cli(*rerun) == EXIT_OK
    assert (out / "stage1.log.jsonl").read_bytes() != before["stage1.log.jsonl"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*kept, "stage2.log.jsonl"])


def test_run_write_failure_inside_a_write_removes_the_temporaries(tmp_path, monkeypatch):
    """A write that fails part way replaces nothing and leaves no temporary."""
    from auxmix import pipeline

    out = tmp_path / "r"
    out.mkdir()
    (out / "report.json").write_text("old\n")
    real = Path.write_text

    def failing(self, text, **kwargs):
        if self.name.startswith(".stage2"):
            raise OSError("disk full")
        return real(self, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    files = {name: name + "\n" for name in pipeline.RUN_FILES}
    with pytest.raises(OSError, match="disk full"):
        pipeline.write_run_files(files, out)
    assert [p.name for p in out.iterdir()] == ["report.json"]
    assert (out / "report.json").read_text() == "old\n"


def test_run_seeds_write_failure_keeps_the_other_seeds(config_file, tmp_path, capsys):
    out = tmp_path / "seeds"
    (out / "seed-0" / "stage2.log.jsonl").mkdir(parents=True)
    assert run_cli("run", config_file, "--out", out, "--seeds", "0..1", "--force") == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert f"[seed 0] error: cannot write {out / 'seed-0'}" in captured.err
    assert "[seed 1] mode=full" in captured.out
    assert (out / "seed-1" / "report.json").is_file()
    assert "Traceback" not in captured.err


def test_run_output_dir_resolution(config_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AUTOSEM_OUT", raising=False)
    assert run_cli("run", config_file) == EXIT_OK
    assert (tmp_path / "runs" / "small" / "report.json").exists()


def test_run_env_var_relocates_output(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("AUTOSEM_OUT", str(tmp_path / "root"))
    assert run_cli("run", config_file) == EXIT_OK
    assert (tmp_path / "root" / "runs" / "small" / "report.json").exists()


def test_run_explicit_out_beats_env_var(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("AUTOSEM_OUT", str(tmp_path / "root"))
    out_dir = tmp_path / "direct"
    assert run_cli("run", config_file, "--out", out_dir) == EXIT_OK
    assert (out_dir / "report.json").exists()
    assert not (tmp_path / "root").exists()


def test_run_config_output_dir_used_when_no_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AUTOSEM_OUT", raising=False)
    p = tmp_path / "named.yaml"
    p.write_text(SMALL_CONFIG + "output_dir: my-experiment\n", encoding="utf-8")
    assert run_cli("run", p) == EXIT_OK
    assert (tmp_path / "my-experiment" / "report.json").exists()


def test_run_seed_fanout(config_file, tmp_path):
    out_dir = tmp_path / "sweep"
    assert run_cli("run", config_file, "--out", out_dir, "--seeds", "0..2") == EXIT_OK
    reports = []
    for s in (0, 1, 2):
        path = out_dir / f"seed-{s}" / "report.json"
        assert path.exists()
        reports.append(json.loads(path.read_text()))
    assert reports[0]["config"]["bandit"]["rng_seed"] == 0
    assert reports[1]["config"]["bandit"]["rng_seed"] == 1
    assert reports[1]["config"]["stage2"]["rng_seed"] == 1
    assert len({json.dumps(r, sort_keys=True) for r in reports}) == 3
    for s in (0, 1, 2):
        # A worker's run is the one-run command with both seeds set.
        single = tmp_path / f"single-{s}"
        seeds = [f"--set={section}.rng_seed={s}" for section in ("bandit", "stage2")]
        assert run_cli("run", config_file, "--out", single, *seeds) == EXIT_OK
        swept = out_dir / f"seed-{s}"
        assert sorted(p.name for p in swept.iterdir()) == sorted(p.name for p in single.iterdir())
        for path in single.iterdir():
            assert (swept / path.name).read_bytes() == path.read_bytes()
        assert run_cli("replay", swept) == EXIT_OK


def test_run_seed_range_syntax_errors(config_file):
    with pytest.raises(SystemExit) as info:
        run_cli("run", config_file, "--seeds", "5")
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli("run", config_file, "--seeds", "4..1")
    assert info.value.code == 2


def test_run_grid_size_guard(config_file, tmp_path, capsys):
    for size in ("0", str(MAX_DENSITY_GRID_SIZE + 1)):
        rc = run_cli("run", config_file, "--out", tmp_path / "g", "--grid-size", size)
        assert rc == EXIT_USAGE
        assert "grid-size" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


# The files of these runs are hashed by tests/identity.py too.  The dump
# sorts its keys, so a line appended to it lands in the stage2 section.
TINY_CONFIG, LINEAR_CONFIG = yaml.safe_dump(TINY), yaml.safe_dump(LINEAR)


@pytest.mark.parametrize(
    "text, args, stage2",
    [
        pytest.param(text, ["--mode", mode], {}, id=f"{name}-{mode}")
        for name, text in (("tiny", TINY_CONFIG), ("linear", LINEAR_CONFIG))
        for mode in ("full", "no_stage1", "no_stage2")
    ]
    + [
        pytest.param(
            TINY_CONFIG + "  hedge_eta: 1.0e+308\n", ["--set", "stage2.n_samples=20"],
            {"hedge_eta": 1.0e308, "n_samples": 20}, id="hugeeta",
        ),
        pytest.param(
            yaml.safe_dump(section(LINEAR, "stage2", ratio_max=10**9)), [], {"ratio_max": 10**9},
            id="bigratio",
        ),
        pytest.param(
            TINY_CONFIG, ["--set", "stage2.ucb_lambda=1e-1", "--set", "stage2.hedge_eta=2E0"],
            {"ucb_lambda": 0.1, "hedge_eta": 2.0}, id="exponent-literals",
        ),
    ],
)
def test_a_run_replays_and_replots_its_csv_with_warnings_as_errors(
    tmp_path, text, args, stage2
):
    """The run and its replay exit 0, its stage-2 log header carries each
    ``stage2`` setting, and ``plot-utilities`` re-renders its CSV byte for byte."""
    config, out, replot = tmp_path / "run.yaml", tmp_path / "run", tmp_path / "replot.csv"
    config.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", config, "--out", out, "--grid-size", 10, *args) == EXIT_OK
        assert run_cli("replay", out) == EXIT_OK
        plot = ["plot-utilities", out / "stage1.log.jsonl", "--grid-size", 10, "--out", replot]
        assert run_cli(*plot) == EXIT_OK
    assert replot.read_bytes() == (out / "utilities.csv").read_bytes()
    header = (out / "stage2.log.jsonl").read_text(encoding="utf-8").split("\n", 1)[0]
    for key, value in stage2.items():
        assert f'"{key}":{json.dumps(value)}' in header


# --------------------------------------------------------- aborted runs

# SMALL_CONFIG runs 8 stage-1 rounds, then the baseline, then 4 stage-2
# rounds (2 random, 2 GP or grid), under stage-2 seed 0.  The first
# validation_metric call follows reset, before stage-1 round 0.
ABORT_SITES = [
    pytest.param("full", ("reset", 0), RuntimeError("no device"), "stage1", 0, id="stage1-reset"),
    pytest.param(
        "full", ("validation_metric", 0), math.nan, "stage1", 0, id="stage1-first-metric"
    ),
    pytest.param(
        "full", ("validation_metric", 4), math.inf, "stage1", 3, id="stage1-round-metric"
    ),
    pytest.param("full", derive_seed(0, "eval", 3), math.nan, "stage2", 3, id="gp-loop-score"),
    pytest.param(
        "no_stage2", derive_seed(0, "eval", 2), -math.inf, "stage2", 2, id="grid-loop-score"
    ),
    pytest.param("full", derive_seed(0, "baseline"), math.nan, "stage2", 0, id="baseline-score"),
]


@pytest.mark.parametrize("mode, where, bad, stage, failing_round", ABORT_SITES)
def test_environment_failure_aborts_with_partial_logs(
    config_file, tmp_path, capsys, mode, where, bad, stage, failing_round
):
    with patched(PlantedBanditEnv, {where: bad}):
        with pytest.raises(RunAborted) as info:
            run_pipeline(to_pipeline_config(load_config(config_file, {"mode": mode})))
    assert len(info.value.stage_logs[stage]) == failing_round
    if stage == "stage2":
        assert len(info.value.stage_logs["stage1"]) == 8

    out_dir = tmp_path / "aborted"
    with patched(PlantedBanditEnv, {where: bad}):
        assert run_cli("run", config_file, "--out", out_dir, "--mode", mode) == EXIT_RUNTIME
    assert "run aborted, partial logs kept" in capsys.readouterr().err
    _, records = read_jsonl(out_dir / f"{stage}.log.jsonl")
    assert len(records) == failing_round
    assert (out_dir / "stage1.log.jsonl").exists() and (out_dir / "stage2.log.jsonl").exists()

    # Under the same failure the rerun aborts where the run did and
    # regenerates both partial logs.
    for path in (out_dir / "stage1.log.jsonl", out_dir / "stage2.log.jsonl", out_dir):
        with patched(PlantedBanditEnv, {where: bad}):
            assert run_cli("replay", path) == EXIT_OK
        assert ", up to the abort: environment failed" in capsys.readouterr().out
    # Without it the rerun finishes, so the failing stage's log lacks its
    # rounds from the failing one on, and the directory lacks the report.
    log = out_dir / f"{stage}.log.jsonl"
    expected = f"divergence at round {failing_round} (line {failing_round + 2} of {log})\n"
    for path in (log, out_dir):
        assert run_cli("replay", path) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert expected in err
    assert f"divergence: {out_dir / 'report.json'} is missing\n" in err


@pytest.fixture()
def diverging_config(tmp_path):
    p = tmp_path / "diverging.yaml"
    p.write_text(yaml.safe_dump(DIVERGING), encoding="utf-8")
    return p


def test_an_aborted_forced_run_removes_the_earlier_report(
    config_file, diverging_config, tmp_path, capsys
):
    """``--force`` over a finished run, then an abort: the old report.json and
    utilities.csv go, the new partial logs replace the old logs, and any
    other file stays as it was."""
    out_dir = tmp_path / "reused"
    assert run_cli("run", config_file, "--out", out_dir) == EXIT_OK
    (out_dir / "notes.txt").write_text("keep", encoding="utf-8")
    assert run_cli("run", diverging_config, "--out", out_dir, "--force") == EXIT_RUNTIME
    assert "run aborted, partial logs kept" in capsys.readouterr().err
    names = sorted(path.name for path in out_dir.iterdir())
    assert names == ["notes.txt", "stage1.log.jsonl", "stage2.log.jsonl"]
    assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "keep"
    for kind in ("stage1", "stage2"):
        header, _ = read_jsonl(out_dir / f"{kind}.log.jsonl")
        assert header["config"]["environment"]["family"] == "shared-linear"
    assert run_cli("replay", out_dir) == EXIT_OK  # a file that is not a run file is not checked


# ---------------------------------------------------------------- replay

@pytest.fixture()
def finished_run(config_file, tmp_path):
    out_dir = tmp_path / "done"
    assert run_cli("run", config_file, "--out", out_dir) == EXIT_OK
    return out_dir


def test_replay_confirms_untouched_logs(finished_run, capsys):
    for name in ("stage1.log.jsonl", "stage2.log.jsonl", ""):
        assert run_cli("replay", finished_run / name) == EXIT_OK
        assert "bit-identically" in capsys.readouterr().out


def test_replay_checks_every_file_of_a_directory_in_one_rerun(finished_run, capsys, monkeypatch):
    """One pipeline run regenerates all four files; a lone log is checked
    alone, and its replay renders no density CSV."""
    calls = {"run_pipeline": 0, "density_csv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("auxmix.cli.run_pipeline", counted("run_pipeline", run_pipeline))
    monkeypatch.setattr("auxmix.pipeline.density_csv", counted("density_csv", density_csv))
    assert run_cli("replay", finished_run) == EXIT_OK
    assert calls == {"run_pipeline": 1, "density_csv": 1}
    names = "stage1.log.jsonl, stage2.log.jsonl, report.json, utilities.csv"
    assert f"replay ok: {names} reproduced bit-identically\n" == capsys.readouterr().out
    assert run_cli("replay", finished_run / "stage1.log.jsonl") == EXIT_OK
    assert calls == {"run_pipeline": 2, "density_csv": 1}


def _leaves(node, path=()):
    """``(path, value)`` for every leaf of a nested config, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key), value


def _edited(value):
    """A different value of the leaf's type, valid where the doubled or next one is."""
    if value is None:
        return "elsewhere"
    if isinstance(value, str):
        return {"full": "no_stage2", "planted": "shared-linear"}.get(value, value + "-edited")
    return value + 1 if isinstance(value, int) else value * 2


@pytest.mark.parametrize("kind", ["stage1", "stage2"])
def test_replay_of_a_directory_catches_every_header_config_edit(finished_run, capsys, kind):
    """Each header's config must be the run's: an edit to any leaf of either
    log's header diverges, or is a config error, even where the edited log
    reproduces.  A lone stage-1 log is not checked against the other files."""
    log = finished_run / f"{kind}.log.jsonl"
    original = log.read_bytes()
    header = json.loads(original.decode("utf-8").split("\n", 1)[0])
    leaves = list(_leaves(header["config"]))
    assert len(leaves) == 23
    for path, value in leaves:
        def edit(header):
            node = header["config"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = _edited(value)
            assert node[path[-1]] != value

        _rewrite_header(log, edit)
        code = run_cli("replay", finished_run)
        err = capsys.readouterr().err
        assert code != EXIT_OK, path
        if path == ("stage2", "ucb_lambda"):
            assert code == EXIT_RUNTIME
            if kind == "stage1":  # the stage-1 log reproduces; the stage-2 header does not
                stage2_log = finished_run / "stage2.log.jsonl"
                assert f"divergence at header (line 1 of {stage2_log}): field 'config'" in err
                assert run_cli("replay", log) == EXIT_OK
                capsys.readouterr()
        log.write_bytes(original)


@pytest.mark.parametrize("name", ["stage2.log.jsonl", "report.json", "utilities.csv"])
def test_replay_of_a_directory_missing_a_run_file_diverges(finished_run, capsys, name):
    (finished_run / name).unlink()
    assert run_cli("replay", finished_run) == EXIT_RUNTIME
    assert f"divergence: {finished_run / name} is missing\n" in capsys.readouterr().err


def test_replay_of_an_aborted_directory_with_a_stale_report_diverges(
    finished_run, diverging_config, tmp_path, capsys
):
    out_dir = tmp_path / "diverged"
    assert run_cli("run", diverging_config, "--out", out_dir) == EXIT_RUNTIME
    for name in ("report.json", "utilities.csv"):
        (out_dir / name).write_bytes((finished_run / name).read_bytes())
        assert run_cli("replay", out_dir) == EXIT_RUNTIME
        assert f"divergence: {out_dir / name} is not written by the rerun\n" in capsys.readouterr().err
        (out_dir / name).unlink()
    assert run_cli("replay", out_dir) == EXIT_OK


@pytest.mark.parametrize("grid_size", [1, 10])
def test_replay_of_a_directory_reads_the_grid_size_from_the_csv(
    config_file, tmp_path, capsys, grid_size
):
    out_dir = tmp_path / "grid"
    assert run_cli("run", config_file, "--out", out_dir, "--grid-size", grid_size) == EXIT_OK
    assert run_cli("replay", out_dir) == EXIT_OK
    csv_path = out_dir / "utilities.csv"
    rows = csv_path.read_bytes().split(b"\r\n")
    assert len(rows) == 1 + 2 * grid_size + 1  # a header, a row per task and point, then ""
    csv_path.write_bytes(b"\r\n".join(rows[:-2] + [b""]))  # one row short
    assert run_cli("replay", out_dir) == EXIT_RUNTIME
    assert f"of {csv_path}\n" in capsys.readouterr().err


def test_replay_of_a_csv_padded_past_the_grid_bound_renders_no_larger_grid(
    finished_run, capsys, monkeypatch
):
    """The grid replay infers from the CSV's line count is capped at the
    bound ``run`` enforces, so padding the file cannot make replay render a
    larger table; the padded file still diverges."""
    grids = []

    def recorded(arms, grid_size):
        grids.append(grid_size)
        return utility_density_table(arms, grid_size)

    monkeypatch.setattr("auxmix.pipeline.utility_density_table", recorded)
    csv_path = finished_run / "utilities.csv"
    with csv_path.open("ab") as f:
        f.write(b"\r\n" * (2 * MAX_DENSITY_GRID_SIZE + 10))
    assert run_cli("replay", finished_run) == EXIT_RUNTIME
    assert f"of {csv_path}\n" in capsys.readouterr().err
    assert grids == [MAX_DENSITY_GRID_SIZE]


def test_replay_names_malformed_first_divergent_line(finished_run, capsys):
    log = finished_run / "stage1.log.jsonl"
    lines = log.read_text(encoding="utf-8").strip().split("\n")
    lines[5] = lines[5][:-1]  # cut the closing brace
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("replay", log) == EXIT_USAGE
    assert "malformed JSON on line 6" in capsys.readouterr().err


def test_replay_reports_divergence_before_a_later_malformed_line(finished_run, capsys):
    log = finished_run / "stage1.log.jsonl"
    lines = log.read_text(encoding="utf-8").strip().split("\n")
    record = json.loads(lines[2])
    record["reward"] = 1 - record["reward"]
    lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    lines[6] = "not json"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("replay", log) == EXIT_RUNTIME
    assert "divergence at round 1 (line 3" in capsys.readouterr().err


def _edit_record(log: Path, index: int, edit) -> None:
    """Apply ``edit`` to the record on line ``index + 1`` of ``log`` and write it back canonically."""
    lines = log.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = canonical_dumps(record)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda rec: rec.update(reward=1 - rec["reward"]), "reward"),
        (lambda rec: rec.update(metric=rec["metric"] + 1e-9), "metric"),
        (lambda rec: rec.update(note="extra"), "note"),
        (lambda rec: rec.pop("selected_arm"), "selected_arm"),
        (lambda rec: rec.update(reward=float(rec["reward"])), "reward"),
        (lambda rec: rec.update(reward=1 - rec["reward"], selected_arm=7), "reward"),
    ],
    ids=[
        "flipped-reward", "changed-metric", "extra-key", "missing-key", "reward-as-float",
        "first-in-sorted-order",
    ],
)
def test_replay_names_the_first_differing_field(finished_run, capsys, edit, field):
    log = finished_run / "stage1.log.jsonl"
    _edit_record(log, 3, edit)
    assert run_cli("replay", log) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"divergence at round 2 (line 4 of {log}): field {field!r}\n" in err


def test_replay_detects_flipped_record(finished_run, capsys):
    log = finished_run / "stage1.log.jsonl"
    _edit_record(log, 3, lambda rec: rec.update(reward=1 - rec["reward"]))
    assert run_cli("replay", log) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "divergence at round 2" in err
    assert "line 4" in err


def test_replay_names_a_changed_header_field(finished_run, capsys):
    """A header config missing a defaulted key replays, but the regenerated
    header carries the normalized config, so the header diverges at it."""
    log = finished_run / "stage1.log.jsonl"
    _rewrite_header(log, lambda header: header["config"]["stage2"].pop("hedge_eta"))
    assert run_cli("replay", log) == EXIT_RUNTIME
    assert f"divergence at header (line 1 of {log}): field 'config'\n" in capsys.readouterr().err


def test_replay_header_only_log(config_file, tmp_path, capsys):
    out_dir = tmp_path / "prior-only"
    assert run_cli("run", config_file, "--out", out_dir, "--set", "bandit.n_rounds=0") == EXIT_OK
    log = out_dir / "stage1.log.jsonl"
    assert len(log.read_text(encoding="utf-8").strip().split("\n")) == 1
    assert run_cli("replay", log) == EXIT_OK
    assert "replay ok: 1 lines" in capsys.readouterr().out


def test_replay_detects_truncated_log(finished_run, capsys):
    log = finished_run / "stage2.log.jsonl"
    lines = log.read_text(encoding="utf-8").strip().split("\n")
    log.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert run_cli("replay", log) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "divergence" in err
    assert f"(line {len(lines)} of {log})\n" in err  # a missing line names no field


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda lines: lines.insert(2, ""), EXIT_USAGE, "malformed JSON on line 3"),
        (lambda lines: lines.insert(2, "  \t "), EXIT_USAGE, "malformed JSON on line 3"),
        (lambda lines: lines.insert(0, ""), EXIT_USAGE, "malformed JSON on line 1"),
        (lambda lines: lines.append(""), EXIT_USAGE, "malformed JSON on line 6"),
        (lambda lines: lines.pop(), EXIT_RUNTIME, "(line 5 of {log}): no final newline\n"),
        (
            lambda lines: lines.__setitem__(slice(None), [ln + "\r" for ln in lines]),
            EXIT_RUNTIME,
            "divergence at header (line 1 of {log})\n",
        ),
    ],
    ids=["blank-line", "whitespace-line", "leading-blank-line", "trailing-blank-line",
         "no-final-newline", "crlf"],
)
def test_replay_compares_the_whole_file_as_bytes(finished_run, capsys, edit, code, message):
    """A file that differs from the writer's output only in its line breaks
    or blank lines is not a reproduction; a blank line is malformed."""
    log = finished_run / "stage2.log.jsonl"
    lines = log.read_bytes().decode("utf-8").split("\n")  # five lines, then ""
    edit(lines)
    log.write_bytes("\n".join(lines).encode("utf-8"))
    assert run_cli("replay", log) == code
    captured = capsys.readouterr()
    assert message.format(log=log) in captured.err
    assert "replay ok" not in captured.out


@pytest.mark.parametrize(
    "n_rounds, message",
    [
        (20, "environment failed at stage-1 round 15: validation_metric returned nan"),
        (0, "environment failed on the baseline run: train_full returned nan"),
    ],
    ids=["stage1-round-15", "stage2-round-0"],
)
def test_replay_reproduces_the_partial_logs_of_a_diverging_run(
    diverging_config, tmp_path, capsys, n_rounds, message
):
    out_dir = tmp_path / "diverged"
    argv = ["run", diverging_config, "--out", out_dir, "--set", f"bandit.n_rounds={n_rounds}"]
    assert run_cli(*argv) == EXIT_RUNTIME
    assert message in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()
    for path in (out_dir / "stage1.log.jsonl", out_dir / "stage2.log.jsonl", out_dir):
        assert run_cli("replay", path) == EXIT_OK
        assert f"bit-identically, up to the abort: {message}\n" in capsys.readouterr().out


@pytest.mark.parametrize("n_rounds, n_records", [(20, 15), (0, 0)], ids=["stage1", "baseline"])
def test_a_diverging_run_is_the_same_under_any_warnings_filter(
    diverging_config, tmp_path, n_rounds, n_records
):
    """The overflow on the way to the NaN neither warns nor raises, so the
    run aborts at the same place when warnings are errors."""
    argv = ["run", diverging_config, "--set", f"bandit.n_rounds={n_rounds}", "--out"]
    assert run_cli(*argv, tmp_path / "default") == EXIT_RUNTIME
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, tmp_path / "strict") == EXIT_RUNTIME
    for kind in ("stage1", "stage2"):
        name = f"{kind}.log.jsonl"
        assert (tmp_path / "strict" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    assert len(read_jsonl(tmp_path / "strict" / "stage1.log.jsonl")[1]) == n_records


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda rec: rec.update(reward=1 - rec["reward"]), "reward"),
        (lambda rec: rec.update(metric=rec["metric"] + 1e-9), "metric"),
    ],
    ids=["flipped-reward", "changed-metric"],
)
def test_replay_names_the_changed_field_of_a_partial_log(
    diverging_config, tmp_path, capsys, edit, field
):
    out_dir = tmp_path / "diverged"
    assert run_cli("run", diverging_config, "--out", out_dir) == EXIT_RUNTIME
    log = out_dir / "stage1.log.jsonl"
    _edit_record(log, 15, edit)  # round 14, the last one logged
    assert run_cli("replay", log) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"divergence at round 14 (line 16 of {log}): field {field!r}\n" in err


def test_replay_missing_file(tmp_path, capsys):
    assert run_cli("replay", tmp_path / "ghost.jsonl") == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_replay_rejects_log_without_config(tmp_path, capsys):
    log = tmp_path / "bare.jsonl"
    header = canonical_dumps({"schema_version": SCHEMA_VERSION, "kind": "stage1"})
    log.write_text(header + '\n{"round":0}\n', encoding="utf-8")
    assert run_cli("replay", log) == EXIT_USAGE
    assert "config" in capsys.readouterr().err


def test_replay_rejects_unknown_kind(tmp_path, capsys):
    log = tmp_path / "odd.jsonl"
    log.write_text('{"schema_version":1,"kind":"stage9","config":{}}\n', encoding="utf-8")
    assert run_cli("replay", log) == EXIT_USAGE
    assert "stage9" in capsys.readouterr().err


def _rewrite_header(log: Path, edit) -> None:
    """Apply ``edit`` to the parsed header of ``log`` and write it back canonically."""
    lines = log.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    edit(header)
    log.write_text("\n".join([canonical_dumps(header), *lines[1:]]) + "\n", encoding="utf-8")


def _as_v4(header: dict, **bandit) -> None:
    """Relabel a header as schema version 4, with ``bandit`` added to its bandit config."""
    header["schema_version"] = 4
    header["config"]["bandit"].update(bandit)


def _with_final_arms(header: dict, records: list[dict]) -> None:
    """Add the ``final_arms`` that a version-3 stage-1 header carried."""
    *_, (alpha, beta) = belief_path(records, BanditConfig(**header["config"]["bandit"]))
    header["final_arms"] = [list(arm) for arm in zip(alpha.tolist(), beta.tolist())]


@pytest.mark.parametrize(
    "name, version, extra",
    [
        pytest.param("stage1.log.jsonl", 1, None, id="stage1.log.jsonl"),
        pytest.param("stage2.log.jsonl", 1, None, id="stage2.log.jsonl"),
        pytest.param("stage1.log.jsonl", 2, None, id="v2"),
        pytest.param("stage1.log.jsonl", 3, None, id="v3"),
        pytest.param("stage1.log.jsonl", 3, _with_final_arms, id="v3-final-arms"),
        pytest.param("stage1.log.jsonl", 4, None, id="v4"),
        pytest.param(
            "stage1.log.jsonl", 4, lambda header, _: _as_v4(header, primary_task_id=0),
            id="v4-primary-task-id",
        ),
    ],
)
def test_replay_refuses_a_log_of_another_schema_version(finished_run, capsys, name, version, extra):
    """A current log relabelled as an older version is refused before any
    regeneration, also with the header field that version carried: a
    version-3 stage-1 header's ``final_arms``, a version-4 config's
    ``bandit.primary_task_id``."""
    log = finished_run / name
    _, records = read_jsonl(log)

    def relabel(header):
        header["schema_version"] = version
        if extra is not None:
            extra(header, records)

    _rewrite_header(log, relabel)
    assert run_cli("replay", log) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"log schema version {version}, this build replays version {SCHEMA_VERSION}" in err
    assert "divergence" not in err


# ---------------------------------------------------------- plot-utilities

def test_plot_utilities_exports_csv(finished_run, capsys):
    log = finished_run / "stage1.log.jsonl"
    assert run_cli("plot-utilities", log, "--grid-size", "40") == EXIT_OK
    out_path = Path(capsys.readouterr().out.strip())
    assert out_path == finished_run / "utilities.csv"
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "task_id,theta,density"
    assert len(lines) == 1 + 2 * 40


def test_plot_utilities_custom_out(finished_run, tmp_path):
    target = tmp_path / "custom" / "dens.csv"
    assert (
        run_cli("plot-utilities", finished_run / "stage1.log.jsonl", "--out", target) == EXIT_OK
    )
    assert target.exists()


def test_plot_utilities_prior_arms_are_flat(config_file, tmp_path):
    """With zero bandit rounds the auxiliary arms stay at Beta(1, 1), whose
    density is exactly 1 everywhere on the grid."""
    out_dir = tmp_path / "flat"
    assert (
        run_cli("run", config_file, "--out", out_dir, "--set", "bandit.n_rounds=0") == EXIT_OK
    )
    target = tmp_path / "flat.csv"
    assert (
        run_cli(
            "plot-utilities", out_dir / "stage1.log.jsonl", "--out", target, "--grid-size", "9"
        )
        == EXIT_OK
    )
    rows = target.read_text().strip().split("\n")[1:]
    aux_rows = [r for r in rows if r.startswith("1,")]
    assert len(aux_rows) == 9
    assert all(float(r.split(",")[2]) == 1.0 for r in aux_rows)


def test_plot_utilities_malformed_log(tmp_path, capsys):
    bad = tmp_path / "garbage.jsonl"
    bad.write_text("not json at all\n", encoding="utf-8")
    assert run_cli("plot-utilities", bad) == EXIT_USAGE
    assert "malformed" in capsys.readouterr().err


def _assert_rejected(log: Path, target: Path, capsys) -> None:
    assert run_cli("plot-utilities", log, "--out", target) == EXIT_USAGE
    assert "malformed run log" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan])
def test_plot_utilities_rejects_invalid_arms(finished_run, tmp_path, capsys, bad):
    """A prior that is not a Beta belief makes the log malformed; no CSV is written."""
    for key in ("alpha0", "beta0"):
        log = tmp_path / f"bad-{key}.jsonl"
        log.write_bytes((finished_run / "stage1.log.jsonl").read_bytes())
        _rewrite_header(log, lambda header: header["config"]["bandit"].update({key: bad}))
        _assert_rejected(log, tmp_path / f"bad-{key}.csv", capsys)


MISSING = object()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("reward", 2),
        ("reward", math.nan),
        ("reward", 1.0),
        ("reward", True),
        ("reward", None),
        pytest.param("reward", MISSING, id="reward-missing"),
        ("selected_arm", 2),
        ("selected_arm", -1),
        ("selected_arm", 1.0),
        ("selected_arm", 0.5),
        ("selected_arm", True),
        ("selected_arm", "1"),
        pytest.param("selected_arm", MISSING, id="selected_arm-missing"),
    ],
)
def test_plot_utilities_rejects_records_the_fold_cannot_read(
    finished_run, tmp_path, capsys, field, bad
):
    """The beliefs are folded from each record's ``selected_arm`` (one of the
    two tasks) and 0/1 ``reward``; any other value is a malformed log."""
    lines = (finished_run / "stage1.log.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[4])
    if bad is MISSING:
        del record[field]
    else:
        record[field] = bad
    lines[4] = json.dumps(record)
    log = tmp_path / "bad.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_rejected(log, tmp_path / "bad.csv", capsys)


def test_plot_utilities_rejects_header_without_bandit_config(finished_run, tmp_path, capsys):
    log = finished_run / "stage1.log.jsonl"
    _rewrite_header(log, lambda header: header["config"].pop("bandit"))
    _assert_rejected(log, tmp_path / "bad.csv", capsys)


# (call, bad, rounds logged) of SMALL_CONFIG runs that abort in stage 1.
STAGE1_ABORTS = [
    pytest.param(("reset", 0), RuntimeError("no device"), 0, id="reset"),
    pytest.param(("validation_metric", 4), math.inf, 3, id="round-3-metric"),
    pytest.param(("step", 7), RuntimeError("lost device"), 7, id="round-7-step"),
]


@pytest.mark.parametrize("where, bad, rounds", STAGE1_ABORTS)
def test_plot_utilities_reads_the_partial_log_of_an_aborted_run(
    config_file, tmp_path, capsys, where, bad, rounds
):
    """The partial log's header has no final arms; folding its records gives
    the CSV of a clean run that stops where the aborted one failed."""
    aborted = tmp_path / "aborted"
    with patched(PlantedBanditEnv, {where: bad}):
        assert run_cli("run", config_file, "--out", aborted) == EXIT_RUNTIME
    header, records = read_jsonl(aborted / "stage1.log.jsonl")
    assert "final_arms" not in header and len(records) == rounds
    target = tmp_path / "aborted.csv"
    argv = ["plot-utilities", aborted / "stage1.log.jsonl", "--out", target]
    assert run_cli(*argv, "--grid-size", "25") == EXIT_OK

    clean = tmp_path / "clean"
    argv = ["run", config_file, "--out", clean, "--set", f"bandit.n_rounds={rounds}"]
    assert run_cli(*argv, "--grid-size", "25") == EXIT_OK
    assert target.read_bytes() == (clean / "utilities.csv").read_bytes()


def test_plot_utilities_reads_a_v1_log(finished_run, tmp_path):
    """A schema-1 log holds each round's beliefs as ``arms_after``; the fold
    reads only ``selected_arm`` and ``reward`` and gives the same CSV."""
    log = finished_run / "stage1.log.jsonl"
    header, records = read_jsonl(log)
    path = belief_path(records, BanditConfig(**header["config"]["bandit"]))
    next(path)  # the prior
    header["schema_version"] = 1
    v1 = [
        canonical_dumps({**record, "arms_after": [[a, b] for a, b in zip(*arms)]})
        for record, arms in zip(records, path)
    ]
    old = tmp_path / "v1.log.jsonl"
    old.write_text("\n".join([canonical_dumps(header), *v1]) + "\n", encoding="utf-8")
    assert run_cli("plot-utilities", old, "--out", tmp_path / "v1.csv") == EXIT_OK
    assert (tmp_path / "v1.csv").read_bytes() == (finished_run / "utilities.csv").read_bytes()


def test_plot_utilities_reads_a_v2_log(finished_run, tmp_path):
    """A schema-2 log also holds each round's Thompson draws as
    ``sampled_thetas``; the fold skips them and gives the same CSV."""
    log = finished_run / "stage1.log.jsonl"
    header, records = read_jsonl(log)
    draws = thompson_draws(records, BanditConfig(**header["config"]["bandit"])).tolist()
    header["schema_version"] = 2
    v2 = [canonical_dumps({**record, "sampled_thetas": d}) for record, d in zip(records, draws)]
    old = tmp_path / "v2.log.jsonl"
    old.write_text("\n".join([canonical_dumps(header), *v2]) + "\n", encoding="utf-8")
    assert run_cli("plot-utilities", old, "--out", tmp_path / "v2.csv") == EXIT_OK
    assert (tmp_path / "v2.csv").read_bytes() == (finished_run / "utilities.csv").read_bytes()


def test_plot_utilities_reads_a_v3_log(finished_run, tmp_path):
    """A schema-3 stage-1 header also held the final beliefs as
    ``final_arms``; the fold ignores them and gives the same CSV."""
    log = tmp_path / "v3.log.jsonl"
    log.write_bytes((finished_run / "stage1.log.jsonl").read_bytes())
    _rewrite_header(log, lambda header: header.update(schema_version=3, final_arms=[[1.0, 1.0]]))
    assert run_cli("plot-utilities", log, "--out", tmp_path / "v3.csv") == EXIT_OK
    assert (tmp_path / "v3.csv").read_bytes() == (finished_run / "utilities.csv").read_bytes()


def test_plot_utilities_reads_a_v4_log(finished_run, tmp_path, capsys):
    """A schema-4 config also held ``bandit.primary_task_id``, always 0;
    the fold drops it and gives the same CSV, and refuses any other value."""
    log = tmp_path / "v4.log.jsonl"
    log.write_bytes((finished_run / "stage1.log.jsonl").read_bytes())
    _rewrite_header(log, lambda header: _as_v4(header, primary_task_id=0))
    assert run_cli("plot-utilities", log, "--out", tmp_path / "v4.csv") == EXIT_OK
    assert (tmp_path / "v4.csv").read_bytes() == (finished_run / "utilities.csv").read_bytes()
    _rewrite_header(log, lambda header: _as_v4(header, primary_task_id=1))
    assert run_cli("plot-utilities", log, "--out", tmp_path / "v4.csv") == EXIT_USAGE
    assert "task 0" in capsys.readouterr().err


@pytest.mark.parametrize("version", [0, 6, 99])
def test_plot_utilities_refuses_a_stage1_log_outside_its_versions(
    finished_run, tmp_path, capsys, version
):
    log = tmp_path / "future.log.jsonl"
    log.write_bytes((finished_run / "stage1.log.jsonl").read_bytes())
    _rewrite_header(log, lambda header: header.update(schema_version=version))
    want = f"log schema version {version}, this build plots versions 1 to {SCHEMA_VERSION}"
    assert run_cli("plot-utilities", log, "--out", tmp_path / "out.csv") == EXIT_USAGE
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("version", [True, 1.0, 5.0])
@pytest.mark.parametrize("command", ["replay", "plot-utilities"])
def test_a_schema_version_that_is_not_an_integer_is_refused(
    finished_run, tmp_path, capsys, command, version
):
    """``True == 1`` and ``5.0 == 5``, but a header must say 1 or 5."""
    log = finished_run / "stage1.log.jsonl"
    _rewrite_header(log, lambda header: header.update(schema_version=version))
    args = ("--out", tmp_path / "out.csv") if command == "plot-utilities" else ()
    assert run_cli(command, log, *args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"log schema version {version!r}, this build" in err
    assert "divergence" not in err
    assert not (tmp_path / "out.csv").exists()


def test_plot_utilities_refuses_a_stage2_log(finished_run, tmp_path, capsys):
    target = tmp_path / "out.csv"
    log = finished_run / "stage2.log.jsonl"
    assert run_cli("plot-utilities", log, "--out", target) == EXIT_USAGE
    assert "log of kind 'stage2'" in capsys.readouterr().err
    assert not target.exists()


def test_plot_utilities_write_failure_is_not_a_malformed_log(finished_run, tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()  # a directory where the CSV file should go
    assert run_cli("plot-utilities", finished_run / "stage1.log.jsonl", "--out", target) == (
        EXIT_RUNTIME
    )
    err = capsys.readouterr().err
    assert "cannot write" in err
    assert "malformed" not in err


def test_plot_utilities_grid_size_guard(finished_run, capsys):
    for size in ("0", str(MAX_DENSITY_GRID_SIZE + 1)):
        rc = run_cli("plot-utilities", finished_run / "stage1.log.jsonl", "--grid-size", size)
        assert rc == EXIT_USAGE
        assert "grid-size" in capsys.readouterr().err
