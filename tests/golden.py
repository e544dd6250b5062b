"""Platform-independent projection of six tiny CLI runs, and its regeneration.

The runs use CI's tiny budgets (20 stage-1 rounds, 4 stage-2 evaluations of
which 2 are random, a 32-point pool, ``--grid-size 10``) in each of the three
modes, for one planted and one shared-linear config.  The projection keeps
what replay across machines can promise:

* ``EXACT`` fields come from the seeded generators, scalar arithmetic and
  comparisons, so they are equal on every platform;
* ``CLOSE`` fields, and every score and metric of the shared-linear family,
  pass through BLAS, LAPACK or libm and are compared within ``RTOL``.

Planted ``SCORES`` are compared exactly.  ``PlantedBanditEnv.train_full``
sums a ratio's share-weighted utilities with ``math.fsum``, correctly
rounded, so its scores, and the incumbents and best score taken from them,
do not depend on the BLAS kernel.  A BLAS dot product, as the fixture was
first generated with, rounds differently under different OpenBLAS kernels
(``OPENBLAS_CORETYPE=Haswell`` moved the last bits), which is why CI reruns
this test under more than one kernel.

The stage-1 beliefs are projected too: the final arms, the last beliefs of
``belief_path`` over the stage-1 records under the header config's bandit
section, and ``report.json``'s expected utilities are ``EXACT``, and the
densities of ``utilities.csv``, which go through ``lgamma``, ``log`` and
``exp``, are ``CLOSE``.

``tests/test_golden.py`` reruns the runs and compares them with the fixture.
A deliberate change to any of these fields regenerates the fixture with::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

import yaml

from auxmix.bandit import BanditConfig, belief_path
from auxmix.cli import EXIT_OK, main
from auxmix.runlog import read_jsonl

FIXTURE = Path(__file__).with_name("golden_projection.json")
MODES = ("full", "no_stage1", "no_stage2")
GRID_SIZE = 10
RTOL = 1e-9

_BUDGETS = {
    "bandit": {"n_rounds": 20},
    "stage2": {"n_samples": 4, "n_initial": 2, "pool_size": 32},
}
CONFIGS = {
    "planted": {"environment": {"family": "planted", "theta_star": [0.9, 0.5, 0.1]}, **_BUDGETS},
    "shared-linear": {
        "environment": {"family": "shared-linear", "total_batches": 200},
        **_BUDGETS,
    },
}

# Projected fields, as (source, field): "report" is report.json, "beliefs" the
# final beliefs folded from the stage-1 log, "utilities" the density column of
# utilities.csv, and "stage1" or "stage2" a field of every record of that log.
EXACT = (
    ("report", "selected_tasks"),
    ("report", "expected_utilities"),
    ("beliefs", "final_arms"),
    ("report", "best_ratio"),
    ("stage1", "selected_arm"),
    ("stage1", "reward"),
    ("stage2", "proposed_ratio"),
    ("stage2", "acquisition_used"),
)
SCORES = (
    ("report", "best_score"),
    ("report", "baseline_score"),
    ("stage1", "metric"),
    ("stage2", "score"),
    ("stage2", "incumbent"),
)
CLOSE = (
    ("stage2", "posterior_mean"),
    ("stage2", "posterior_std"),
    ("utilities", "density"),
)


def project(run_dir: Path) -> dict:
    """The projected fields of one run directory, one list per log field."""
    header, stage1 = read_jsonl(run_dir / "stage1.log.jsonl")
    *_, (alpha, beta) = belief_path(stage1, BanditConfig(**header["config"]["bandit"]))
    with (run_dir / "utilities.csv").open(encoding="utf-8", newline="") as fh:
        densities = [float(row["density"]) for row in csv.DictReader(fh)]
    sources = {
        "report": json.loads((run_dir / "report.json").read_text(encoding="utf-8")),
        "beliefs": {"final_arms": [list(arm) for arm in zip(alpha.tolist(), beta.tolist())]},
        "utilities": {"density": densities},
    }
    logs = {"stage1": stage1, "stage2": read_jsonl(run_dir / "stage2.log.jsonl")[1]}
    out: dict = {}
    for log, field in EXACT + SCORES + CLOSE:
        if log in sources:
            value = sources[log][field]
        else:
            value = [record[field] for record in logs[log]]
        out[f"{log}.{field}"] = value
    return out


def run_projection(family: str, mode: str, work_dir: Path) -> dict:
    """Run one config through ``auxmix run`` and project its outputs."""
    config_path = work_dir / f"{family}.yaml"
    config_path.write_text(yaml.safe_dump(CONFIGS[family]), encoding="utf-8")
    run_dir = work_dir / f"{family}-{mode}"
    argv = ["run", str(config_path), "--mode", mode, "--out", str(run_dir)]
    code = main(argv + ["--grid-size", str(GRID_SIZE)])
    if code != EXIT_OK:
        raise RuntimeError(f"auxmix run exited {code} for {family} {mode}")
    return project(run_dir)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            f"{family}/{mode}": run_projection(family, mode, Path(tmp))
            for family in CONFIGS
            for mode in MODES
        }
    FIXTURE.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
