"""auxmix benchmark: one closed-loop workload, timed for a fixed number of seconds.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload planted-search --seed 1 --seconds 30 --trace 0

One client in one process runs units back to back, each pipeline run under
its own seed drawn from ``--seed``; no threads or worker processes are
added, and BLAS is pinned to one thread.  Before the timed phase the
benchmark measures set-up in fresh interpreters and runs one untimed
warm-up unit.  A tenth of the timed phase goes to timing a fixed
calibration loop (``perfbench/speed.py``); the end-to-end times are scaled
by it to a reference machine speed, and the printed scale recovers the
raw figures.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced units of the same seed,
checks that tracing leaves every output byte-identical, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result.  The package is imported from ``src/`` of the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
CALIBRATION_SHARE = 0.1  # of the timed phase, spent timing perfbench.speed.calibrate
SETUP_TIMEOUT_S = 60

# Runs in a fresh interpreter: import the CLI, load and normalize the
# workload's config file, build its environment.  Prints the three times.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import auxmix.cli
t1 = time.perf_counter()
from auxmix.config import load_config
cfg = load_config(sys.argv[1])
t2 = time.perf_counter()
from auxmix.environments import make_environment
make_environment(cfg["environment"], cfg["bandit"]["batches_per_round"])
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_p50_s": "s",
    "peak_rss_mb": "MB",
}

# Printed on every run but not bounded: quality varies with the seed far
# more than timing does, and replay exists only on cli-replay.  Failures
# are also the result's "failed" count.
REPORTED_UNITS = {
    "replay_p50_s": "s",
    "best_score": "score",
    "regret": "score",
    "gain": "score",
    "fail_frac": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from the suffix of its name."""
    for suffix, unit in (("_ms", "ms"), ("_bytes", "bytes"), ("_frac", "ratio"), ("_s", "s"),
                         (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def time_setup(config_file: Path) -> tuple[float, float, float]:
    """(import, config load, environment build) seconds in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config_file)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return tuple(float(v) for v in proc.stdout.split())


def provenance() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _median(values) -> float:
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _mean(values) -> float:
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.fmean(values) if values else math.nan


def _write_spans(path: Path, traced_spans) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("unit,name,start,end,parent\n")
        for unit, spans in enumerate(traced_spans):
            for name, start, end, parent in spans:
                fh.write(f"{unit},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(workload, results, traced, setup, untraced_run_s) -> dict[str, float]:
    """Per-layer figures, each per unit of work (mean over traced units) unless noted."""
    from perfbench.trace import SpanStats
    from auxmix.config import normalize

    stats = [SpanStats(spans) for spans in traced]

    def per_unit(fn) -> float:
        return statistics.fmean(fn(s) for s in stats) if stats else 0.0

    def pooled_p50_ms(name: str) -> float:
        durations = [d for s in stats for d in s.durations.get(name, ())]
        return 1000.0 * statistics.median(durations) if durations else 0.0

    normalized = normalize(workload.raw_config)
    env = normalized["environment"]
    if env["family"] == "shared-linear":
        per_fit, per_step = env["total_batches"], normalized["bandit"]["batches_per_round"]
    else:
        per_fit = per_step = 0
    scores = ("acquisition.pi", "acquisition.ei", "acquisition.ucb")
    traced_run_s = [r.run_s for r in results]
    m = {
        "mixing.propose_next.calls": per_unit(lambda s: s.count("mixing.propose_next")),
        "mixing.propose_next.s": per_unit(lambda s: s.seconds("mixing.propose_next")),
        "mixing.propose_next.p50_ms": pooled_p50_ms("mixing.propose_next"),
        "mixing.self_s": per_unit(lambda s: s.layer_self_seconds("mixing")),
        "mixing.distinct_frac": _mean(r.distinct_frac for r in results),
        "gp.posterior_at.calls": per_unit(lambda s: s.count("gp.posterior_at")),
        "gp.posterior_at.s": per_unit(lambda s: s.seconds("gp.posterior_at")),
        "gp.fit.calls": per_unit(lambda s: s.count("gp.fit")),
        "gp.fit.s": per_unit(lambda s: s.seconds("gp.fit")),
        "gp.lml.calls": per_unit(lambda s: s.count("gp.lml")),
        "acquisition.score.calls": per_unit(lambda s: s.count(*scores)),
        "acquisition.score.s": per_unit(lambda s: s.seconds(*scores)),
        "acquisition.hedge_update.s": per_unit(lambda s: s.seconds("acquisition.hedge_update")),
        "environments.train_full.calls": per_unit(lambda s: s.count("environments.train_full")),
        "environments.train_full.s": per_unit(lambda s: s.seconds("environments.train_full")),
        "environments.train_full.p50_ms": pooled_p50_ms("environments.train_full"),
        "environments.step.calls": per_unit(lambda s: s.count("environments.step")),
        "environments.step.s": per_unit(lambda s: s.seconds("environments.step")),
        "environments.validation_metric.s": per_unit(
            lambda s: s.seconds("environments.validation_metric")
        ),
        "environments.sgd_batches": per_unit(
            lambda s: s.count("environments.train_full") * per_fit
            + s.count("environments.step") * per_step
        ),
        "bandit.run_stage1.calls": per_unit(lambda s: s.count("bandit.run_stage1")),
        "bandit.run_stage1.s": per_unit(lambda s: s.seconds("bandit.run_stage1")),
        "bandit.rounds": _mean(r.stage1_rounds for r in results),
        "bandit.self_s": per_unit(lambda s: s.layer_self_seconds("bandit")),
        "runlog.append.calls": per_unit(lambda s: s.count("runlog.append")),
        "runlog.append.s": per_unit(lambda s: s.seconds("runlog.append")),
        "runlog.lines.s": per_unit(lambda s: s.seconds("runlog.lines")),
        "runlog.read_jsonl.s": per_unit(lambda s: s.seconds("runlog.read_jsonl")),
        "runlog.log_bytes": _mean(r.log_bytes for r in results),
        "pipeline.run_pipeline.s": per_unit(lambda s: s.seconds("pipeline.run_pipeline")),
        "pipeline.write_outputs.s": per_unit(lambda s: s.seconds("pipeline.write_outputs")),
        "pipeline.output_bytes": _mean(r.output_bytes for r in results),
        "cli.run.s": per_unit(lambda s: s.seconds("cli.run")),
        "cli.replay.s": per_unit(lambda s: s.seconds("cli.replay")),
        "cli.replay.self_s": per_unit(lambda s: s.self_seconds("cli.replay")),
        "setup.import_s": _median(s[0] for s in setup),
        "setup.env_build_s": _median(s[2] for s in setup),
        "config.load.s": _median(s[1] for s in setup),
        "trace.run_p50_s": _median(traced_run_s),
        "trace.untraced_run_p50_s": _median(untraced_run_s),
    }
    m["trace.overhead_s"] = m["trace.run_p50_s"] - m["trace.untraced_run_p50_s"]
    return m


def measure(workload, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """Run one benchmark invocation and return its result record and human summary."""
    # Imported here and in layer_metrics: the package must not load before
    # main() has pinned BLAS threads and put src/ on the path.
    from perfbench.speed import REFERENCE_S, calibrate
    from perfbench.trace import Tracer
    from perfbench.workloads import run_unit, write_config

    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_file = write_config(workload, workdir)
    calibration, setup = [], []
    for _ in range(setup_samples):
        calibration.append(calibrate())
        setup.append(time_setup(config_file))

    seeds = random.Random(f"{workload.name}:{seed}")
    tracer = Tracer()
    run_unit(workload, seeds.randrange(2**31), workdir, tracer.paused)  # warm-up, not counted

    attempted = failed = 0
    ok, untraced_run_s, traced_spans, timed_calibration = [], [], [], []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        while sum(timed_calibration) < CALIBRATION_SHARE * (time.perf_counter() - start):
            timed_calibration.append(calibrate())
        run_seed = seeds.randrange(2**31)
        attempted += 1
        try:
            result = run_unit(workload, run_seed, workdir, tracer.paused)
            if trace:
                try:
                    with tracer.installed():
                        traced = run_unit(workload, run_seed, workdir, tracer.paused)
                finally:
                    spans = tracer.take()
                traced_spans.append(spans)
                untraced_run_s.append(result.run_s)
                if traced.outputs != result.outputs:
                    traced.problems.append("traced outputs differ from untraced outputs")
                result = traced
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            failed += 1
            print(f"unit {attempted} (seed {run_seed}) raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        if result.problems:
            failed += 1
            print(f"unit {attempted} (seed {run_seed}) failed checks: {result.problems}",
                  file=sys.stderr)
            continue
        ok.append(result)
    wall = time.perf_counter() - start
    # Times measured now, multiplied by ``scale``, read as at the reference speed.
    calibration_s = statistics.median(calibration + timed_calibration)
    scale = REFERENCE_S / calibration_s

    replay = [r.replay_s for r in ok if r.replay_s is not None]
    summary = {
        "setup_s": scale * _median(sum(s) for s in setup),
        "runs_per_s": len(ok) / (wall - sum(timed_calibration)) / scale,
        "run_p50_s": scale * _median(r.run_s for r in ok),
        "calibration_s": calibration_s,
        "scale": scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_score": _median(r.best_score for r in ok),
        "replay_p50_s": scale * _median(replay),
        "regret": _mean(r.regret for r in ok),
        "gain": _median(r.gain for r in ok),
        "fail_frac": failed / attempted,
    }
    if trace:
        _write_spans(workdir / "spans.csv", traced_spans)
        metrics = layer_metrics(workload, ok, traced_spans, setup, untraced_run_s)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: summary[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record, summary, wall


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "auxmix" / "__init__.py").is_file():
        print(f"error: no auxmix sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads; set-up interpreters inherit it
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.speed import REFERENCE_S
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import auxmix

    if Path(auxmix.__file__).resolve().parent != (SRC / "auxmix").resolve():
        print(f"error: imported auxmix from {auxmix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    record, summary, wall = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{record['attempted']} units in {wall:.1f} s, one client, closed loop")
    print(f"dominant layer: {workload.dominant}")
    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    print(f"calibration: median {summary['calibration_s']:.6f} s against "
          f"{REFERENCE_S} s; end-to-end times scaled by {summary['scale']:.4f}")
    for name, unit in REPORTED_UNITS.items():
        value = "n/a" if math.isnan(summary[name]) else f"{summary[name]:.6g} {unit}"
        print(f"  {name:34s} {value}")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
