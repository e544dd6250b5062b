"""Config file schema: defaults, validation, normalization, overrides."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from auxmix import SettingError
from auxmix import config as config_module
from auxmix.bandit import BanditConfig
from auxmix.config import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    apply_overrides,
    dump_config,
    load_config,
    normalize,
    to_pipeline_config,
)
from auxmix.environments import ENVIRONMENT_FAMILIES, PlantedBanditEnv, SharedParamMtlEnv
from auxmix.mixing import Stage2Config
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
    "primary_task_id": 0,
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
        config_module._dataclass_fields(Knobs)


def _readme_config_blocks() -> dict[str, dict]:
    """The YAML blocks of the README's Configuration section, by environment family."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    blocks = [yaml.safe_load(b.split("```", 1)[0]) for b in section.split("```yaml\n")[1:]]
    return {block["environment"]["family"]: block for block in blocks}


@pytest.mark.parametrize("family", ENVIRONMENT_FAMILIES)
def test_readme_config_reference_matches_the_defaults(family):
    """The README has one config block per environment family, each key with
    its default: the default family's block documents every section, the
    others their environment section.  Each block loads as it stands."""
    blocks = _readme_config_blocks()
    assert set(blocks) == set(ENVIRONMENT_FAMILIES)
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
    PipelineConfig, bandit=BanditConfig(n_tasks=3), stage2=Stage2Config(), environment={}
)
_SHARED = functools.partial(SharedParamMtlEnv, dim=2, n_primary_train=4, n_aux=4)

# One rejected value per check of each constructor, with the field it names.
_REJECTIONS = [
    (BanditConfig, {"n_tasks": 1}, "n_tasks"),
    (BanditConfig, {"n_tasks": 3, "alpha0": 0.0}, "alpha0"),
    (BanditConfig, {"n_tasks": 3, "beta0": float("inf")}, "beta0"),
    (BanditConfig, {"n_tasks": 3, "gamma": 1.5}, "gamma"),
    (BanditConfig, {"n_tasks": 3, "primary_prior_boost": -1.0}, "primary_prior_boost"),
    (BanditConfig, {"n_tasks": 3, "primary_task_id": 3}, "primary_task_id"),
    (BanditConfig, {"n_tasks": 3, "n_rounds": -1}, "n_rounds"),
    (BanditConfig, {"n_tasks": 3, "batches_per_round": 0}, "batches_per_round"),
    (Stage2Config, {"n_initial": 20}, "n_initial"),
    (Stage2Config, {"ratio_max": 0}, "ratio_max"),
    (Stage2Config, {"pool_size": 0}, "pool_size"),
    (Stage2Config, {"nu": 0.5}, "nu"),
    (Stage2Config, {"ucb_lambda": -1.0}, "ucb_lambda"),
    (Stage2Config, {"hedge_eta": 0.0}, "hedge_eta"),
    (_PIPELINE, {"mode": "both"}, "mode"),
    (_PIPELINE, {"bandit": BanditConfig(n_tasks=3, primary_task_id=1)}, "bandit.primary_task_id"),
    (PlantedBanditEnv, {"theta_star": []}, "theta_star"),
    (PlantedBanditEnv, {"theta_star": [0.5, 1.5]}, "theta_star"),
    (PlantedBanditEnv, {"score_noise": -0.1}, "score_noise"),
    (_SHARED, {"task_profile": ["useful", "primary"]}, "task_profile"),
    (_SHARED, {"task_profile": ["primary", "mystery"]}, "task_profile"),
    (_SHARED, {"dim": 0}, "dim"),
    (_SHARED, {"n_primary_train": 0}, "n_primary_train"),
    (_SHARED, {"n_aux": 0}, "n_aux"),
    (_SHARED, {"total_batches": 0}, "total_batches"),
    (_SHARED, {"batch_size": 0}, "batch_size"),
    (_SHARED, {"batches_per_round": 0}, "batches_per_round"),
    (_SHARED, {"n_primary_heldout": 1}, "n_primary_heldout"),
    (_SHARED, {"learning_rate": 0.0}, "learning_rate"),
] + [
    # A NaN or an infinity slips past a bare range comparison.
    (make, {**base, field: value}, field)
    for make, base, field in [
        (BanditConfig, {"n_tasks": 3}, "primary_prior_boost"),
        (Stage2Config, {}, "ucb_lambda"),
        (PlantedBanditEnv, {}, "score_noise"),
        (_SHARED, {}, "primary_label_noise"),
        (_SHARED, {}, "aux_label_noise"),
        (_SHARED, {}, "useful_shift"),
        (_SHARED, {}, "harmful_scale"),
    ]
    for value in (math.nan, math.inf)
] + [
    # An integer setting rejects every float, NaN and infinity included.
    (make, {**base, field: value}, field)
    for make, base, field in [
        (BanditConfig, {}, "n_tasks"),
        (BanditConfig, {"n_tasks": 3}, "n_rounds"),
        (BanditConfig, {"n_tasks": 3}, "batches_per_round"),
        (BanditConfig, {"n_tasks": 3}, "primary_task_id"),
        (Stage2Config, {}, "n_samples"),
        (Stage2Config, {}, "n_initial"),
        (Stage2Config, {}, "ratio_max"),
        (Stage2Config, {}, "pool_size"),
        (_SHARED, {}, "dim"),
        (_SHARED, {}, "n_primary_train"),
        (_SHARED, {}, "n_primary_heldout"),
        (_SHARED, {}, "n_aux"),
        (_SHARED, {}, "total_batches"),
        (_SHARED, {}, "batch_size"),
        (_SHARED, {}, "batches_per_round"),
    ]
    for value in (math.nan, math.inf, 2.5)
] + [
    # A seed may be any integer, but not a bool, a float, NaN or infinity.
    (make, {**base, field: value}, field)
    for make, base, field in [
        (BanditConfig, {"n_tasks": 3}, "rng_seed"),
        (Stage2Config, {}, "rng_seed"),
        (_SHARED, {}, "data_seed"),
    ]
    for value in (True, math.nan, math.inf, 2.5)
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


@pytest.mark.parametrize("make, kwargs, field", _REJECTIONS)
def test_every_constructor_check_names_a_parameter(make, kwargs, field):
    """The config key comes from ``SettingError.field``, so a field that is
    not a constructor parameter would name a key that does not exist."""
    with pytest.raises(SettingError) as info:
        make(**kwargs)
    assert info.value.field == field
    if make is _PIPELINE:
        assert field in ("mode", "bandit.primary_task_id")
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
        {"family": "shared-linear", "dim": 4, "n_primary_train": 16, "n_aux": 16},
    ],
)
def test_loading_builds_the_environment_once(monkeypatch, environment):
    built = []
    real = config_module.make_environment

    def counting(settings, batches_per_round=10):
        built.append(settings["family"])
        return real(settings, batches_per_round)

    monkeypatch.setattr(config_module, "make_environment", counting)
    pc = to_pipeline_config(normalize({"environment": environment}))
    assert built == [environment["family"]]
    assert pc.environment["family"] == environment["family"]


# -------------------------------------------------------------- overrides

def test_apply_overrides_parses_yaml_scalars():
    raw = {"bandit": {"gamma": 0.02}}
    out = apply_overrides(raw, {"bandit.gamma": "0.3", "mode": "no_stage1"})
    assert out["bandit"]["gamma"] == 0.3
    assert out["mode"] == "no_stage1"
    assert raw == {"bandit": {"gamma": 0.02}}  # input untouched


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
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")


def test_load_config_invalid_yaml(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("mode: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(p)


def test_load_config_non_mapping_top_level(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
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
    assert len(report.evaluations) == 5
