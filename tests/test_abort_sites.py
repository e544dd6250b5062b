"""Every stage-2 abort site: each training of a small run, in each mode,
failing by an exception and by a non-finite score."""

from __future__ import annotations

import dataclasses
import math

import pytest

from auxmix import config, pipeline
from auxmix.pipeline import PIPELINE_MODES
from auxmix.runlog import RunAborted, derive_seed
from configs import TINY, section
from faults import Faults

RAW = section(TINY, "bandit", n_rounds=8)
N_SAMPLES, N_INITIAL = RAW["stage2"]["n_samples"], RAW["stage2"]["n_initial"]
FAULTS = {"raise": RuntimeError("injected failure"), "nan": math.nan}


def _first_round_of_batch(mode: str, t: int) -> int:
    """The search modes train the random rounds as one batch and each GP
    round alone; ``no_stage2`` trains its whole grid as one batch."""
    return 0 if mode == "no_stage2" or t < N_INITIAL else t


@pytest.mark.parametrize("how", FAULTS)
@pytest.mark.parametrize(
    "t", [None, *range(N_SAMPLES)], ids=lambda t: "baseline" if t is None else f"round-{t}"
)
@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_each_stage2_training_aborts_where_it_fails(mode, t, how):
    """An exception names its batch's first round, or the baseline run; a
    non-finite score names its own round.  The stage-2 log holds exactly
    the rounds before that, and a rerun under the same fault renders the
    same run files."""
    cfg = config.to_pipeline_config({**RAW, "mode": mode})
    clean = pipeline.run_pipeline(cfg)
    rng_seed = cfg.stage2.rng_seed
    seed = derive_seed(rng_seed, "baseline") if t is None else derive_seed(rng_seed, "eval", t)
    faults = {seed: FAULTS[how]}

    def aborted() -> RunAborted:
        with pytest.raises(RunAborted) as info:
            pipeline.run_pipeline(dataclasses.replace(cfg, env=Faults(cfg.env, faults)))
        return info.value

    exc = aborted()
    if t is None:
        where, logged = "on the baseline run", 0
    else:
        logged = t if how == "nan" else _first_round_of_batch(mode, t)
        where = f"at stage-2 round {logged}"
    message = "injected failure" if how == "raise" else "train_full returned nan"
    assert str(exc) == f"environment failed {where}: {message}"
    assert exc.stage_logs["stage2"].records == clean.stage2_log.records[:logged]
    assert exc.stage_logs["stage1"].records == clean.stage1_log.records
    files = pipeline.run_files(exc, cfg.normalized)
    assert pipeline.run_files(aborted(), cfg.normalized) == files
