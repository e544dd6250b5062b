"""End-to-end run plus ablations, from a config dict to report artifacts.

Runs the same planted environment in all three modes, prints the reports,
writes the artifacts of the full run to a temp directory, and replays that
directory to show the bit-identity guarantee: one rerun reproduces all four
files byte for byte.
"""

import tempfile
from pathlib import Path

from auxmix.cli import main
from auxmix.config import dump_config, to_pipeline_config
from auxmix.pipeline import run_pipeline, write_outputs

RAW = {
    "environment": {"family": "planted", "theta_star": [0.8, 0.9, 0.9, 0.1, 0.1]},
    "bandit": {"n_rounds": 200, "rng_seed": 0},
    "stage2": {"n_samples": 20, "n_initial": 5, "rng_seed": 0},
}

print("normalized config:")
print(dump_config(to_pipeline_config(RAW).normalized))

# to_pipeline_config loads a raw config dict: it fills the defaults,
# validates every setting, and builds the environment the run uses.
reports = {}
for mode in ("full", "no_stage1", "no_stage2"):
    cfg = to_pipeline_config({**RAW, "mode": mode})
    reports[mode] = run_pipeline(cfg)

print("mode        selected      best ratio     best    baseline")
for mode, rep in reports.items():
    print(f"{mode:11s} {str(list(rep.selection.selected_task_ids)):13s}"
          f" {str(list(rep.best_ratio.counts)):14s}"
          f" {rep.best_score:.4f}  {rep.baseline_score:.4f}")

print("\nstage 1 keeps the useful auxiliaries 1 and 2 (theta 0.9) and drops")
print("the harmful 3 and 4 (theta 0.1); stage 2 then tunes the mix, so the")
print("full pipeline should beat both ablations, which beat primary-only.")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "demo-run"
    paths = write_outputs(reports["full"], out)
    print("\nartifacts:")
    for name, path in paths.items():
        print(f"  {name:18s} {path.stat().st_size:7d} bytes")

    code = main(["replay", str(out)])
    print(f"\nreplay exit code: {code} (0 means bit-identical)")
