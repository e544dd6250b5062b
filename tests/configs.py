"""The one home of every run config that more than one check runs.

Each config is a plain raw-config dict, as ``config.to_pipeline_config``
takes it and as ``yaml.safe_dump`` writes it for ``auxmix run``; derive a
variant with :func:`section` rather than writing a second copy.  This
module imports only the standard library, so ``tests/memory_bound.py`` can
embed a config in the code of a child process and CI can run it without
the package installed.

``PLANTED_SEARCH`` and ``CLI_REPLAY`` are copies of the ``perfbench``
workloads of those names (``perfbench/workloads.py``), which cannot import
``tests/``, and ``CRITERION_07_ENVIRONMENT`` is the ``linear-grid``
workload's environment; ``test_config.py``'s
``test_shared_run_configs_equal_the_benchmark_workloads`` holds each equal
to its workload.

Run as a script, it writes the configs of CI's smoke steps into ``DIR``,
one ``NAME.yaml`` each, as JSON, which is valid YAML::

    python tests/configs.py DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def section(raw: dict, name: str, **values) -> dict:
    """``raw`` with ``values`` set in its ``name`` section; ``raw`` is unchanged."""
    return {**raw, name: {**raw.get(name, {}), **values}}


# CI's budgets: 20 stage-1 rounds, 4 stage-2 evaluations of which 2 are
# random, a 32-point pool.
_TINY_BUDGETS = {
    "bandit": {"n_rounds": 20},
    "stage2": {"n_samples": 4, "n_initial": 2, "pool_size": 32},
}
TINY = {"environment": {"family": "planted", "theta_star": [0.9, 0.5, 0.1]}, **_TINY_BUDGETS}
LINEAR = {
    "environment": {
        "family": "shared-linear",
        "task_profile": ["primary", "useful", "harmful"],
        "total_batches": 200,
        "n_primary_train": 48,
        "primary_label_noise": 0.8,
    },
    **_TINY_BUDGETS,
}
TINY_SHARED_LINEAR = {  # the default task profile
    "environment": {"family": "shared-linear", "total_batches": 200},
    **_TINY_BUDGETS,
}
# SGD overflows at this learning rate, so the run aborts from its config
# alone: at stage-1 round 15, or without stage 1 at the baseline.
DIVERGING = {
    "environment": {
        "family": "shared-linear",
        "task_profile": ["primary", "useful", "harmful"],
        "learning_rate": 50,
        "total_batches": 2000,
    },
    "bandit": {"n_rounds": 20},
    "stage2": {"n_samples": 4, "n_initial": 2},
}
# The largest stage-2 budget, gp.MAX_N_SAMPLES, searched by the GP or drawn
# almost wholly at random.
LONGSEARCH512 = {
    "environment": TINY["environment"],
    "bandit": {"n_rounds": 20},
    "stage2": {"n_samples": 512, "n_initial": 2},
}
LONGINIT512 = {
    "mode": "no_stage1",
    "environment": {"family": "planted", "theta_star": [0.9, 0.8, 0.5, 0.2, 0.1]},
    "stage2": {"n_samples": 512, "n_initial": 510},
}

_NOISY_PRIMARY = {
    "n_primary_train": 48,
    "primary_label_noise": 0.8,
    "n_aux": 256,
    "useful_shift": 0.05,
    "harmful_scale": 1.0,
}
CRITERION_06_ENVIRONMENT = {
    "family": "shared-linear",
    "task_profile": ["primary", "useful", "useful", "harmful"],
    "total_batches": 400,
    **_NOISY_PRIMARY,
}
CRITERION_07_ENVIRONMENT = {
    "family": "shared-linear",
    "task_profile": ["primary", "useful", "useful", "useful", "harmful", "harmful", "harmful"],
    "total_batches": 500,
    **_NOISY_PRIMARY,
}

PLANTED_SEARCH = {"environment": {"family": "planted", "theta_star": [0.8, 0.9, 0.9, 0.1, 0.1]}}
CLI_REPLAY = {
    "environment": {
        "family": "planted",
        "theta_star": [0.8, 0.9, 0.85, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1, 0.1],
    },
    "bandit": {"n_rounds": 2000},
    "stage2": {"n_samples": 6, "n_initial": 5},
}

# The configs CI's smoke steps run, by file name.
SMOKE = {
    "tiny": TINY,
    "abort": DIVERGING,
    "longsearch512": LONGSEARCH512,
    "longinit512": LONGINIT512,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: python {Path(__file__).name} DIR", file=sys.stderr)
        return 2
    for name, raw in SMOKE.items():
        Path(argv[0], f"{name}.yaml").write_text(json.dumps(raw) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
