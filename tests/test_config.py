"""Config file schema: defaults, validation, normalization, overrides."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import configs
from auxmix.runlog import RunAborted, SettingError
from auxmix import config as config_module
from auxmix.bandit import BanditConfig
from auxmix.config import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    ConfigFileError,
    apply_overrides,
    dump_config,
    load_config,
    normalize,
    to_pipeline_config,
)
from auxmix import cli
from auxmix.environments import (
    ENVIRONMENT_CLASSES,
    MAX_BATCH_SIZE,
    PlantedBanditEnv,
    SharedParamMtlEnv,
)
from auxmix.mixing import MAX_N_SAMPLES, MAX_POOL_SIZE, MAX_RATIO_MAX, Stage2Config
from auxmix.pipeline import PipelineConfig, run_pipeline


def test_empty_config_fills_every_default():
    cfg = normalize({})
    assert cfg["schema_version"] == CONFIG_SCHEMA_VERSION
    assert cfg["mode"] == "full"
    assert cfg["output_dir"] is None
    assert cfg["environment"]["family"] == "planted"
    assert cfg["bandit"]["n_tasks"] == 3
    assert cfg["bandit"]["gamma"] == 0.02
    assert cfg["stage2"]["n_samples"] == 20
    assert cfg["stage2"]["nu"] == 2.5


def test_normalize_is_idempotent():
    cfg = normalize({"mode": "no_stage1", "bandit": {"gamma": 0.1}})
    assert normalize(cfg) == cfg


BANDIT_DEFAULTS = {
    "n_tasks": 3,
    "alpha0": 1.0,
    "beta0": 1.0,
    "gamma": 0.02,
    "primary_prior_boost": 2.0,
    "n_rounds": 200,
    "batches_per_round": 10,
    "rng_seed": 0,
}
STAGE2_DEFAULTS = {
    "n_samples": 20,
    "n_initial": 5,
    "ratio_max": 20,
    "rng_seed": 0,
    "nu": 2.5,
    "ucb_lambda": 2.0,
    "hedge_eta": 1.0,
    "pool_size": 256,
}
NORMALIZED_DEFAULTS = {
    "planted": {
        "schema_version": 1,
        "mode": "full",
        "output_dir": None,
        "environment": {"family": "planted", "theta_star": [0.8, 0.9, 0.1], "score_noise": 0.01},
        "bandit": BANDIT_DEFAULTS,
        "stage2": STAGE2_DEFAULTS,
    },
    "shared-linear": {
        "schema_version": 1,
        "mode": "full",
        "output_dir": None,
        "environment": {
            "family": "shared-linear",
            "task_profile": ["primary", "useful", "harmful"],
            "dim": 16,
            "n_primary_train": 256,
            "n_primary_heldout": 256,
            "n_aux": 128,
            "total_batches": 2000,
            "batch_size": 8,
            "learning_rate": 0.05,
            "primary_label_noise": 0.0,
            "aux_label_noise": 0.0,
            "useful_shift": 0.1,
            "harmful_scale": 1.5,
            "data_seed": 0,
        },
        "bandit": BANDIT_DEFAULTS,
        "stage2": STAGE2_DEFAULTS,
    },
}


def _ordered(value):
    """Nested dicts as item lists, so == also compares key order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    return value


def test_normalize_orders_keys_canonically():
    cfg = normalize({"stage2": {"rng_seed": 7, "n_samples": 10}})
    assert list(cfg) == ["schema_version", "mode", "output_dir", "environment", "bandit", "stage2"]
    assert list(cfg["stage2"]) == [
        "n_samples",
        "n_initial",
        "ratio_max",
        "rng_seed",
        "nu",
        "ucb_lambda",
        "hedge_eta",
        "pool_size",
    ]
    # Every default, key order included, of both families' empty configs.
    assert _ordered(normalize({})) == _ordered(NORMALIZED_DEFAULTS["planted"])
    for family, expected in NORMALIZED_DEFAULTS.items():
        cfg = normalize({"environment": {"family": family}})
        assert _ordered(cfg) == _ordered(expected)
        assert [type(v) for v in cfg["environment"].values()] == [
            type(v) for v in expected["environment"].values()
        ]


def test_schema_refuses_an_annotation_without_a_coercer():
    @dataclasses.dataclass(frozen=True)
    class Knobs:
        depth: int = 3
        table: dict = None

    with pytest.raises(TypeError, match="Knobs.table"):
        config_module._fields(Knobs)


def _readme_config_blocks() -> dict[str, dict]:
    """The YAML blocks of the README's Configuration section, by environment family."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    blocks = [yaml.safe_load(b.split("```", 1)[0]) for b in section.split("```yaml\n")[1:]]
    return {block["environment"]["family"]: block for block in blocks}


@pytest.mark.parametrize("family", ENVIRONMENT_CLASSES)
def test_readme_config_reference_matches_the_defaults(family):
    """The README has one config block per environment family, each key with
    its default: the default family's block documents every section, the
    others their environment section.  Each block loads as it stands."""
    blocks = _readme_config_blocks()
    assert set(blocks) == set(ENVIRONMENT_CLASSES)
    documented = blocks[family]
    defaults = normalize({"environment": {"family": family}})
    assert normalize(documented) == defaults
    assert documented == {key: defaults[key] for key in documented}
    if family == normalize({})["environment"]["family"]:
        assert list(documented) == list(defaults)
    else:
        assert list(documented) == ["environment"]


def test_normalized_config_round_trips_through_yaml():
    cfg = normalize({"bandit": {"gamma": 0.3}, "mode": "no_stage2"})
    again = yaml.safe_load(dump_config(cfg))
    assert again == cfg
    assert normalize(again) == cfg


# ------------------------------------------------------------- rejections

def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="'stage3'"):
        normalize({"stage3": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="'bandit.momentum'"):
        normalize({"bandit": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="'bandit.primary_task_id': unknown key"):
        normalize({"bandit": {"primary_task_id": 0}})
    with pytest.raises(ConfigError, match="'stage2.jitter'"):
        normalize({"stage2": {"jitter": 1e-6}})
    with pytest.raises(ConfigError, match="'environment.volume'"):
        normalize({"environment": {"family": "planted", "volume": 11}})


@pytest.mark.parametrize("value", [[], 0, "", False, 0.0])
@pytest.mark.parametrize("section", ["environment", "bandit", "stage2"])
def test_a_falsy_section_that_is_not_a_mapping_is_rejected(section, value):
    with pytest.raises(ConfigError, match="expected a mapping") as info:
        normalize({section: value})
    assert info.value.key == section


def test_a_null_section_takes_the_defaults():
    assert normalize({"environment": None, "bandit": None, "stage2": None}) == normalize({})


def test_schema_version_mismatch_rejected():
    with pytest.raises(ConfigError, match="schema_version"):
        normalize({"schema_version": 2})


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="'mode'"):
        normalize({"mode": "both"})
    with pytest.raises(ConfigError, match="'mode'"):
        normalize({"mode": "primary_task_id"})


@pytest.mark.parametrize("primary", [1, 2, 5])
def test_primary_task_other_than_zero_rejected(primary):
    with pytest.raises(ConfigError, match="'bandit.primary_task_id'") as info:
        normalize({"bandit": {"primary_task_id": primary}})
    assert info.value.key == "bandit.primary_task_id"


def test_bad_family_rejected():
    with pytest.raises(ConfigError, match="environment.family"):
        normalize({"environment": {"family": "gridworld"}})


def test_type_errors_name_the_dotted_key():
    with pytest.raises(ConfigError, match="'bandit.gamma'"):
        normalize({"bandit": {"gamma": "fast"}})
    with pytest.raises(ConfigError, match="'stage2.n_samples'"):
        normalize({"stage2": {"n_samples": 2.5}})
    with pytest.raises(ConfigError, match=r"'environment.theta_star\[1\]'"):
        normalize({"environment": {"family": "planted", "theta_star": [0.5, "high"]}})


def test_invariant_errors_name_the_dotted_key():
    with pytest.raises(ConfigError, match="'bandit.gamma'"):
        normalize({"bandit": {"gamma": 1.5}})
    with pytest.raises(ConfigError, match="'stage2.n_initial'"):
        normalize({"stage2": {"n_initial": 0}})
    with pytest.raises(ConfigError, match="environment.theta_star"):
        normalize({"environment": {"family": "planted", "theta_star": [0.5, 1.5]}})


@pytest.mark.parametrize(
    "family, key, value",
    [
        ("planted", "score_noise", -0.1),
        ("shared-linear", "task_profile", ["useful", "primary"]),
        ("shared-linear", "task_profile", ["primary", "mystery"]),
        ("shared-linear", "dim", 0),
        ("shared-linear", "n_primary_train", 0),
        ("shared-linear", "n_primary_heldout", 1),
        ("shared-linear", "n_aux", 0),
        ("shared-linear", "total_batches", 0),
        ("shared-linear", "batch_size", 0),
        ("shared-linear", "learning_rate", -1),
    ],
)
def test_environment_invariant_errors_name_the_key(family, key, value):
    with pytest.raises(ConfigError, match=f"'environment.{key}'"):
        normalize({"environment": {"family": family, key: value}})


_PIPELINE = functools.partial(
    PipelineConfig, bandit=BanditConfig(n_tasks=3), stage2=Stage2Config(), env=PlantedBanditEnv()
)
_SHARED = functools.partial(SharedParamMtlEnv, dim=2, n_primary_train=4, n_aux=4)

# One rejected value per check of each constructor, with the field it names.
# A row's number is part of its test id, so deleting a row renames no other;
# a field row of a comprehension numbers its values from its own number.
_REJECTIONS = [
    (0, BanditConfig, {"n_tasks": 1}, "n_tasks"),
    (1, BanditConfig, {"n_tasks": 3, "alpha0": 0.0}, "alpha0"),
    (2, BanditConfig, {"n_tasks": 3, "beta0": float("inf")}, "beta0"),
    (3, BanditConfig, {"n_tasks": 3, "gamma": 1.5}, "gamma"),
    (4, BanditConfig, {"n_tasks": 3, "primary_prior_boost": -1.0}, "primary_prior_boost"),
    # Work over MAX_WORK_BATCHES, named by its larger factor.
    (5, BanditConfig, {"n_tasks": 3, "batches_per_round": 10**12}, "batches_per_round"),
    (6, BanditConfig, {"n_tasks": 3, "n_rounds": -1}, "n_rounds"),
    (7, BanditConfig, {"n_tasks": 3, "batches_per_round": 0}, "batches_per_round"),
    (8, Stage2Config, {"n_initial": 20}, "n_initial"),
    (9, Stage2Config, {"ratio_max": 0}, "ratio_max"),
    (10, Stage2Config, {"pool_size": 0}, "pool_size"),
    (11, Stage2Config, {"nu": 0.5}, "nu"),
    (12, Stage2Config, {"ucb_lambda": -1.0}, "ucb_lambda"),
    (13, Stage2Config, {"hedge_eta": 0.0}, "hedge_eta"),
    (14, _PIPELINE, {"mode": "both"}, "mode"),
    (15, Stage2Config, {"n_samples": MAX_N_SAMPLES + 1}, "n_samples"),
    (16, PlantedBanditEnv, {"theta_star": []}, "theta_star"),
    (17, PlantedBanditEnv, {"theta_star": [0.5, 1.5]}, "theta_star"),
    (18, PlantedBanditEnv, {"score_noise": -0.1}, "score_noise"),
    (19, _SHARED, {"task_profile": ["useful", "primary"]}, "task_profile"),
    (20, _SHARED, {"task_profile": ["primary", "mystery"]}, "task_profile"),
    (21, _SHARED, {"dim": 0}, "dim"),
    (22, _SHARED, {"n_primary_train": 0}, "n_primary_train"),
    (23, _SHARED, {"n_aux": 0}, "n_aux"),
    (24, _SHARED, {"total_batches": 0}, "total_batches"),
    (25, _SHARED, {"batch_size": 0}, "batch_size"),
    (26, _SHARED, {"batches_per_round": 0}, "batches_per_round"),
    (27, _SHARED, {"n_primary_heldout": 1}, "n_primary_heldout"),
    (28, _SHARED, {"learning_rate": 0.0}, "learning_rate"),
] + [
    # A NaN or an infinity slips past a bare range comparison.
    (n, make, {**base, field: value}, field)
    for first, make, base, field in [
        (29, BanditConfig, {"n_tasks": 3}, "primary_prior_boost"),
        (31, Stage2Config, {}, "ucb_lambda"),
        (33, PlantedBanditEnv, {}, "score_noise"),
        (35, _SHARED, {}, "primary_label_noise"),
        (37, _SHARED, {}, "aux_label_noise"),
        (39, _SHARED, {}, "useful_shift"),
        (41, _SHARED, {}, "harmful_scale"),
    ]
    for n, value in enumerate((math.nan, math.inf), first)
] + [
    # An integer setting rejects every float, NaN and infinity included.
    (n, make, {**base, field: value}, field)
    for first, make, base, field in [
        (43, BanditConfig, {}, "n_tasks"),
        (46, BanditConfig, {"n_tasks": 3}, "n_rounds"),
        (49, BanditConfig, {"n_tasks": 3}, "batches_per_round"),
    ]
    for n, value in enumerate((math.nan, math.inf, 2.5), first)
] + [
    # The other float settings of BanditConfig reject NaN too.
    (n, BanditConfig, {"n_tasks": 3, field: math.nan}, field)
    for n, field in [(52, "alpha0"), (53, "beta0"), (54, "gamma")]
] + [
    # The other integer settings, as above.
    (n, make, {**base, field: value}, field)
    for first, make, base, field in [
        (55, Stage2Config, {}, "n_samples"),
        (58, Stage2Config, {}, "n_initial"),
        (61, Stage2Config, {}, "ratio_max"),
        (64, Stage2Config, {}, "pool_size"),
        (67, _SHARED, {}, "dim"),
        (70, _SHARED, {}, "n_primary_train"),
        (73, _SHARED, {}, "n_primary_heldout"),
        (76, _SHARED, {}, "n_aux"),
        (79, _SHARED, {}, "total_batches"),
        (82, _SHARED, {}, "batch_size"),
        (85, _SHARED, {}, "batches_per_round"),
    ]
    for n, value in enumerate((math.nan, math.inf, 2.5), first)
] + [
    # A seed may be any integer, but not a bool, a float, NaN or infinity.
    (n, make, {**base, field: value}, field)
    for first, make, base, field in [
        (88, BanditConfig, {"n_tasks": 3}, "rng_seed"),
        (92, Stage2Config, {}, "rng_seed"),
        (96, _SHARED, {}, "data_seed"),
    ]
    for n, value in enumerate((True, math.nan, math.inf, 2.5), first)
] + [
    (100, _PIPELINE, {"env": PlantedBanditEnv(theta_star=[0.9, 0.1])}, "bandit.n_tasks"),
    # Work over MAX_WORK_BATCHES, named by its larger factor.
    (101, BanditConfig, {"n_tasks": 3, "n_rounds": 10**12}, "n_rounds"),
    (102, _PIPELINE, {"env": _SHARED(total_batches=10**12)}, "environment.total_batches"),
    # A candidate pool over MAX_POOL_SIZE.
    (103, Stage2Config, {"pool_size": MAX_POOL_SIZE + 1}, "pool_size"),
    (104, Stage2Config, {"pool_size": 10**9}, "pool_size"),
    # A mini-batch over MAX_BATCH_SIZE rows.
    (105, _SHARED, {"batch_size": MAX_BATCH_SIZE + 1}, "batch_size"),
    (106, _SHARED, {"batch_size": 10**8}, "batch_size"),
    # A grid over MAX_RATIO_MAX, whose counts would leave int64.
    (107, Stage2Config, {"ratio_max": 10**30}, "ratio_max"),
]


def test_integer_settings_take_numpy_integers_but_not_bools():
    three, five = np.int64(3), np.int32(5)
    assert BanditConfig(n_tasks=three, n_rounds=five).n_rounds == 5
    assert Stage2Config(n_samples=np.int64(6), pool_size=np.int16(8)).pool_size == 8
    assert _SHARED(dim=np.int64(3), batch_size=np.uint8(2)).dim == 3
    with pytest.raises(SettingError) as info:
        BanditConfig(n_tasks=3, n_rounds=True)
    assert info.value.field == "n_rounds"


def test_seeds_take_every_integer_a_config_file_takes():
    for seed in (-7, 0, 2**70, np.int64(-3)):
        assert BanditConfig(n_tasks=3, rng_seed=seed).rng_seed == seed
        assert Stage2Config(rng_seed=seed).rng_seed == seed
        _SHARED(data_seed=seed)
    cfg = normalize(
        {
            "environment": {"family": "shared-linear", "data_seed": -1},
            "bandit": {"rng_seed": -5},
            "stage2": {"rng_seed": 2**64},
        }
    )
    assert (cfg["environment"]["data_seed"], cfg["bandit"]["rng_seed"]) == (-1, -5)
    assert cfg["stage2"]["rng_seed"] == 2**64


def _rejection_id(n, make, field):
    """The id pytest gave row ``n`` when rows were named by their position."""
    return f"{getattr(make, '__name__', f'make{n}')}-kwargs{n}-{field}"


@pytest.mark.parametrize(
    "make, kwargs, field",
    [
        pytest.param(make, kwargs, field, id=_rejection_id(n, make, field))
        for n, make, kwargs, field in _REJECTIONS
    ],
)
def test_every_constructor_check_names_a_parameter(make, kwargs, field):
    """The config key comes from ``SettingError.field``, so a field that is
    not a constructor parameter would name a key that does not exist."""
    with pytest.raises(SettingError) as info:
        make(**kwargs)
    assert info.value.field == field
    if make is _PIPELINE:
        assert field in (
            "mode", "stage2.n_samples", "bandit.n_tasks", "environment.total_batches"
        )
    else:
        assert field in inspect.signature(getattr(make, "func", make)).parameters


@pytest.mark.parametrize(
    "name, section",
    [
        ("BanditConfig", "bandit"),
        ("Stage2Config", "stage2"),
        ("PipelineConfig", "<root>"),
        ("make_environment", "environment"),
    ],
)
def test_a_value_error_without_a_field_names_its_section(monkeypatch, name, section):
    """The key never comes from the message: this one names two fields."""
    problem = "gamma and dim cannot both be read from this message"

    def refuse(*args, **kwargs):
        raise ValueError(problem)

    monkeypatch.setattr(config_module, name, refuse)
    with pytest.raises(ConfigError) as info:
        normalize({})
    assert info.value.key == section
    assert str(info.value) == f"config key '{section}': {problem}"


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"bandit": {"n_rounds": 10**12}}, "bandit.n_rounds"),
        ({"bandit": {"n_rounds": 2, "batches_per_round": 10**12}}, "bandit.batches_per_round"),
        ({"environment": {"family": "shared-linear", "total_batches": 10**12}},
         "environment.total_batches"),
        ({"environment": {"family": "shared-linear", "total_batches": 130817},
          "stage2": {"n_samples": 512}}, "environment.total_batches"),
    ],
)
def test_work_over_the_budget_names_its_larger_factor(raw, key):
    with pytest.raises(ConfigError) as info:
        normalize(raw)
    assert info.value.key == key
    assert f"over the budget of {2**26} (MAX_WORK_BATCHES)" in str(info.value)


def test_the_work_budget_admits_its_bound():
    BanditConfig(n_tasks=3, n_rounds=2**25, batches_per_round=2)
    with pytest.raises(SettingError):
        BanditConfig(n_tasks=3, n_rounds=2**25 + 1, batches_per_round=2)
    _PIPELINE(env=_SHARED(total_batches=2**26 // 21))  # the default stage 2 trains 21 times
    with pytest.raises(SettingError):
        _PIPELINE(env=_SHARED(total_batches=2**26 // 21 + 1))


@pytest.mark.parametrize(
    "environment", [{"family": "planted"}, {"family": "shared-linear", "total_batches": 1}]
)
@pytest.mark.parametrize("n_samples", [MAX_N_SAMPLES + 1, 10**7])
def test_stage2_budget_over_its_bound_names_stage2_n_samples(environment, n_samples):
    """A planted environment trains no batches, so the work budget alone
    would let any GP budget through; the bound is loaded, never run."""
    with pytest.raises(ConfigError) as info:
        normalize({"environment": environment, "stage2": {"n_samples": n_samples}})
    assert info.value.key == "stage2.n_samples"
    assert f"at most {MAX_N_SAMPLES}" in str(info.value)


def test_stage2_budget_admits_its_bounds():
    stage2 = Stage2Config(n_samples=MAX_N_SAMPLES, pool_size=MAX_POOL_SIZE)
    assert _PIPELINE(stage2=stage2).stage2.n_samples == MAX_N_SAMPLES


def test_ratio_max_over_its_bound_names_stage2_ratio_max():
    """Loaded, never run: past int64 a random ratio's draw would fail after stage 1."""
    with pytest.raises(ConfigError) as info:
        normalize({"stage2": {"ratio_max": MAX_RATIO_MAX + 1}})
    assert info.value.key == "stage2.ratio_max"
    assert f"at most {MAX_RATIO_MAX}" in str(info.value)


def test_batch_size_over_its_bound_names_environment_batch_size():
    """Checked before any data are generated; the batch is never drawn."""
    with pytest.raises(ConfigError) as info:
        normalize({"environment": {"family": "shared-linear", "batch_size": 10**8}})
    assert info.value.key == "environment.batch_size"
    assert f"at most {MAX_BATCH_SIZE} (MAX_BATCH_SIZE)" in str(info.value)


def test_batch_size_admits_its_bound():
    env = _SHARED(batch_size=MAX_BATCH_SIZE)
    env.step(0)  # one mini-batch of MAX_BATCH_SIZE rows, drawn with replacement
    assert env.batch_size == MAX_BATCH_SIZE and 0.0 <= env.validation_metric() <= 1.0


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="'bandit.n_rounds'"):
        normalize({"bandit": {"n_rounds": True}})


# -------------------------------------------------------- n_tasks derivation

def test_n_tasks_derived_from_planted_theta():
    cfg = normalize({"environment": {"family": "planted", "theta_star": [0.9, 0.5, 0.5, 0.1]}})
    assert cfg["bandit"]["n_tasks"] == 4


def test_n_tasks_derived_from_profile():
    cfg = normalize(
        {"environment": {"family": "shared-linear", "task_profile": ["primary", "useful"]}}
    )
    assert cfg["bandit"]["n_tasks"] == 2


def test_n_tasks_mismatch_rejected():
    with pytest.raises(ConfigError, match="'bandit.n_tasks'"):
        normalize(
            {
                "environment": {"family": "planted", "theta_star": [0.9, 0.1]},
                "bandit": {"n_tasks": 5},
            }
        )


def test_n_tasks_explicit_match_accepted():
    cfg = normalize(
        {
            "environment": {"family": "planted", "theta_star": [0.9, 0.1]},
            "bandit": {"n_tasks": 2},
        }
    )
    assert cfg["bandit"]["n_tasks"] == 2


@pytest.mark.parametrize(
    "environment, key",
    [
        ({"family": "planted", "theta_star": [0.9]}, "environment.theta_star"),
        ({"family": "shared-linear", "task_profile": ["primary"]}, "environment.task_profile"),
    ],
)
def test_single_task_environment_blames_its_task_list(environment, key):
    """n_tasks is derived from the environment, so a one-task environment is
    the key to fix, also when n_tasks is restated to agree with it."""
    for bandit in ({}, {"n_tasks": 1}):
        with pytest.raises(ConfigError, match=f"'{key}'") as info:
            normalize({"environment": environment, "bandit": bandit})
        assert info.value.key == key
        assert "defines 1 task" in str(info.value)


@pytest.mark.parametrize(
    "environment",
    [
        {"family": "planted"},
        {"family": "shared-linear", "dim": 4, "n_primary_train": 16, "n_aux": 16,
         "total_batches": 100},
    ],
)
def test_loading_builds_the_environment_once(monkeypatch, tmp_path, environment):
    """Every path from a config to a run builds its environment exactly once:
    the loader builds it and the run reuses it."""
    built = []
    for cls in (PlantedBanditEnv, SharedParamMtlEnv):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def builds(action, *args) -> int:
        built.clear()
        action(*args)
        return len(built)

    raw = {"environment": environment, "bandit": {"n_rounds": 5},
           "stage2": {"n_samples": 3, "n_initial": 2, "pool_size": 16}}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "run"
    assert builds(cli.main, ["run", str(path), "--out", str(out)]) == 1
    assert built == [ENVIRONMENT_CLASSES[environment["family"]].__name__]
    assert (out / "report.json").exists()
    for kind in ("stage1", "stage2"):
        assert builds(cli.main, ["replay", str(out / f"{kind}.log.jsonl")]) == 1
    job = (normalize(raw), 3, str(tmp_path / "seed-3"), False, 10)
    assert builds(cli._run_one_seed, job) == 1

    assert builds(lambda: run_pipeline(to_pipeline_config(raw))) == 1
    config = to_pipeline_config(raw)
    assert builds(run_pipeline, config) == 0
    assert config.normalized == normalize(raw) == normalize(config.normalized)


# -------------------------------------------------------------- overrides

def test_apply_overrides_parses_yaml_scalars():
    raw = {"bandit": {"gamma": 0.02}}
    out = apply_overrides(raw, {"bandit.gamma": "0.3", "mode": "no_stage1"})
    assert out["bandit"]["gamma"] == 0.3
    assert out["mode"] == "no_stage1"
    assert raw == {"bandit": {"gamma": 0.02}}  # input untouched


def test_apply_overrides_copies_nested_values():
    raw = {"environment": {"family": "planted", "theta_star": [0.9, 0.1]}}
    out = apply_overrides(raw, {"environment.score_noise": "0.02"})
    out["environment"]["theta_star"].append(0.5)
    assert raw == {"environment": {"family": "planted", "theta_star": [0.9, 0.1]}}


def test_apply_overrides_creates_missing_sections():
    out = apply_overrides({}, {"stage2.n_samples": "12"})
    assert out == {"stage2": {"n_samples": 12}}


def test_apply_overrides_rejects_descent_through_scalar():
    with pytest.raises(ConfigError, match="mode.deep"):
        apply_overrides({"mode": "full"}, {"mode.deep": "1"})


def test_override_then_normalize_validates():
    out = apply_overrides({}, {"bandit.gamma": "2.0"})
    with pytest.raises(ConfigError, match="'bandit.gamma'"):
        normalize(out)


@pytest.mark.parametrize(
    "text, value",
    [("1e6", 1e6), ("2E-3", 2e-3), ("+1.5e2", 150.0), (".5e1", 5.0), ("1.0e+308", 1e308)],
)
def test_a_float_key_takes_a_yaml_1_2_exponent_literal(tmp_path, text, value):
    """PyYAML leaves an exponent without a dot or a sign as a string."""
    p = tmp_path / "run.yaml"
    p.write_text(f"stage2:\n  hedge_eta: {text}\n", encoding="utf-8")
    stage2 = load_config(p, {"stage2.ucb_lambda": text})["stage2"]
    assert (type(stage2["hedge_eta"]), stage2["hedge_eta"], stage2["ucb_lambda"]) == (
        float, value, value
    )


@pytest.mark.parametrize(
    "key, text",
    [
        ("stage2.n_samples", "1e1"),  # an integer key takes no float literal
        ("environment.family", "1e1"),  # nor does a string key
        ("stage2.hedge_eta", '"1.5"'),  # a string without an exponent is no number
        ("stage2.hedge_eta", "1e"),
        ("stage2.hedge_eta", "e5"),
        ("stage2.hedge_eta", "1_0e1"),
        ("stage2.hedge_eta", "1e999"),  # not finite
    ],
)
def test_only_a_float_key_takes_an_exponent_literal(key, text):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        normalize(apply_overrides({"environment": {"family": "planted"}}, {key: text}))


# ------------------------------------------------------------ file loading

def test_load_config_reads_yaml_and_normalizes(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text("mode: no_stage2\nbandit:\n  n_rounds: 50\n", encoding="utf-8")
    cfg = load_config(p)
    assert cfg["mode"] == "no_stage2"
    assert cfg["bandit"]["n_rounds"] == 50


def test_load_config_with_overrides(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text("bandit:\n  rng_seed: 1\n", encoding="utf-8")
    cfg = load_config(p, {"bandit.rng_seed": "9", "stage2.rng_seed": "9"})
    assert cfg["bandit"]["rng_seed"] == 9
    assert cfg["stage2"]["rng_seed"] == 9


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigFileError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")


def test_load_config_non_utf8_file(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(ConfigFileError) as info:
        load_config(p)
    assert info.value.key == str(p)
    assert str(info.value).startswith(f"config file '{p}': cannot read it: ")


def test_load_config_invalid_yaml(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("mode: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigFileError, match="invalid YAML"):
        load_config(p)


def test_load_config_non_mapping_top_level(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ConfigFileError, match="mapping"):
        load_config(p)


# ----------------------------------------------------- runnable conversion

def test_to_pipeline_config_builds_and_runs():
    cfg = normalize(
        {
            "environment": {"family": "planted", "theta_star": [0.9, 0.1]},
            "bandit": {"n_rounds": 30},
            "stage2": {"n_samples": 5, "n_initial": 2},
        }
    )
    pc = to_pipeline_config(cfg)
    assert pc.bandit.n_tasks == 2
    assert pc.normalized == cfg
    report = run_pipeline(pc)
    assert report.config == cfg
    assert len(report.stage2_log.records) == 5


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded from its file: ``tests/configs.py``
    keeps copies of its configs, because ``perfbench`` cannot import ``tests/``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_shared_run_configs_equal_the_benchmark_workloads():
    """The identity corpus's ``planted-search-*``, ``cli-replay-*`` and
    ``c07-*`` runs cover the configs the benchmark runs."""
    workloads = _perfbench_workloads()
    for name, raw in (("planted-search", configs.PLANTED_SEARCH), ("cli-replay", configs.CLI_REPLAY)):
        assert normalize(raw) == normalize(workloads.WORKLOADS[name].raw_config), name
    linear_grid = workloads.WORKLOADS["linear-grid"].raw_config["environment"]
    assert configs.CRITERION_07_ENVIRONMENT == linear_grid


# ------------------------------------------------------------------ fuzzing

_FUZZ_BASES = {
    "planted": {
        "environment": {"family": "planted", "theta_star": [0.9, 0.5, 0.1]},
        "bandit": {"n_rounds": 8},
        "stage2": {"n_samples": 4, "n_initial": 2, "pool_size": 16},
    },
    "shared-linear": {
        "environment": {
            "family": "shared-linear", "dim": 3, "n_primary_train": 12,
            "n_primary_heldout": 6, "n_aux": 12, "total_batches": 12, "batch_size": 4,
        },
        "bandit": {"n_rounds": 8, "batches_per_round": 2},
        "stage2": {"n_samples": 4, "n_initial": 2, "pool_size": 16},
    },
}
# Wrong types, non-finite numbers, bools, 0 and -1 run when they load; huge
# numbers are only loaded, since one that loads may still ask for a long run.
_SMALL_VALUES = ("x", [1], {"k": 1}, None, math.nan, math.inf, -math.inf, True, False, 0, -1, 0.5)
_HUGE_VALUES = (10**12, 2**64, 1e308, -1e308)


def _fuzz_keys(family):
    normal = normalize(_FUZZ_BASES[family])
    keys = [(family, key) for key in normal]
    keys += [(family, f"{key}.{sub}") for key, v in normal.items() if isinstance(v, dict) for sub in v]
    return keys


@pytest.mark.parametrize("family, key", _fuzz_keys("planted") + _fuzz_keys("shared-linear"))
def test_a_mutated_key_ends_as_config_error_run_or_abort(family, key):
    """Each bad value of one key is a ConfigError, a finished run or a RunAborted."""
    *section, name = key.split(".")
    for value in _SMALL_VALUES + _HUGE_VALUES:
        raw = normalize(_FUZZ_BASES[family])
        node = raw[section[0]] if section else raw
        node[name] = value
        try:
            config = to_pipeline_config(raw)
        except ConfigError as exc:
            assert exc.key
            continue
        if value in _HUGE_VALUES:
            continue
        try:
            report = run_pipeline(config)
        except RunAborted as exc:
            assert set(exc.stage_logs) == {"stage1", "stage2"}
            continue
        assert math.isfinite(report.best_score)
