"""Seed derivation, canonical serialization, and JSON-lines round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest

from auxmix.runlog import (
    SCHEMA_VERSION,
    RunAborted,
    RunLog,
    SettingError,
    canonical_dumps,
    derive_seed,
    make_header,
    read_jsonl,
    require_floats,
    split_log,
)

# Frozen against the protocol definition (first 8 bytes, little-endian, of
# sha256 of the ":"-joined parts).  These must never change across builds:
# replay is a cross-build byte-level contract.
FROZEN_SEEDS = {
    (0, "stage1-ts"): 8301926353928191802,
    (0, "stage2"): 2086023976940111157,
    (0, "eval", 0): 9831381662881278857,
    (0, "eval", 7): 269189504235415524,
    (0, "baseline"): 6299302426817355180,
    (42,): 10200184810016360307,
    ("a", "b"): 14739426895290663783,
}


def test_derive_seed_frozen_values():
    for parts, expected in FROZEN_SEEDS.items():
        assert derive_seed(*parts) == expected


def test_derive_seed_range_and_distinctness():
    seeds = {derive_seed(i, "x") for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**64 for s in seeds)


def test_derive_seed_requires_parts():
    with pytest.raises(ValueError):
        derive_seed()


def test_derive_seed_seedable():
    rng = np.random.default_rng(derive_seed(3, "check"))
    again = np.random.default_rng(derive_seed(3, "check"))
    assert rng.random() == again.random()


def test_canonical_dumps_sorted_and_compact():
    text = canonical_dumps({"b": 1, "a": [1.5, 2]})
    assert text == '{"a":[1.5,2],"b":1}'


def test_canonical_dumps_equal_dicts_equal_bytes():
    one = canonical_dumps({"x": 1, "y": 0.25})
    two = canonical_dumps({"y": 0.25, "x": 1})
    assert one == two


def test_runlog_append_and_lines():
    log = RunLog()
    first = log.append(round=0, reward=1)
    log.append(round=1, reward=0)
    assert len(log) == 2
    assert log.records[0] is first
    lines = log.lines()
    assert lines == ['{"reward":1,"round":0}', '{"reward":0,"round":1}']


def _fields(i, real=float):
    return dict(
        round=i,
        metric=real(0.1 * i + 1e-17),
        reward=bool(i % 2),
        thetas=[real(0.0 + i), real(0.5 + i), 1.0 + i],
        arms_after=[[0.0, 1.0], [1.0, real(1.0)], [2.0, 1.0]],
        nested=[0.5, [i, [real(2.5), "tag", None]], True],
        plain=[1, 2.25, False],
    )


def test_runlog_lines_equal_canonical_dumps_of_numpy_records():
    # np.float64 is the one NumPy type a record may hold: it is a float.
    log = RunLog()
    for i in range(4):
        log.append(**_fields(i, np.float64))
    plain = [_fields(i) for i in range(4)]
    assert log.records == plain
    assert log.lines() == [canonical_dumps(f) for f in plain]
    header = make_header("stage1", {"seed": 3})
    assert log.lines(header) == [canonical_dumps(header)] + log.lines()


@pytest.mark.parametrize(
    "value", [np.int64(3), np.bool_(True), np.array([1.0, 2.0]), [np.int32(2)], {"a": np.int64(1)}]
)
def test_numpy_integers_bools_and_arrays_fail_to_serialize(value):
    log = RunLog()
    log.append(round=0, value=value)
    with pytest.raises(TypeError):
        log.lines()
    with pytest.raises(TypeError):
        RunLog().lines(make_header("stage1", {"seed": value}))


def test_np_float64_serializes_like_the_equal_float():
    for x in (0.1, 1e-17, -2.5e300, 1.0 / 3.0, 0.0, 12345.678):
        assert canonical_dumps({"metric": np.float64(x)}) == canonical_dumps({"metric": x})
        log = RunLog()
        log.append(metric=np.float64(x), nested=[np.float64(x)])
        assert log.lines() == [canonical_dumps({"metric": x, "nested": [x]})]


def test_runlog_records_come_only_through_append():
    with pytest.raises(TypeError):
        RunLog(records=[{"round": np.int64(0)}])


@pytest.mark.parametrize("n_records", [0, 1, 3])
@pytest.mark.parametrize("header", [None, make_header("stage1", {"rng_seed": 3})])
def test_runlog_text_ends_every_line_with_a_newline(n_records, header):
    log = RunLog()
    for t in range(n_records):
        log.append(round=t, metric=t / 3)
    assert log.text(header) == "".join(line + "\n" for line in log.lines(header))
    assert log.text(header).count("\n") == n_records + (header is not None)


def test_runlog_write_and_read_roundtrip(tmp_path):
    log = RunLog()
    log.append(round=0, metric=0.5)
    header = make_header("stage1", {"rng_seed": 3})
    path = tmp_path / "log.jsonl"
    path.write_text(log.text(header), encoding="utf-8", newline="")
    got_header, got_records = read_jsonl(path)
    assert got_header["kind"] == "stage1"
    assert got_header["schema_version"] == SCHEMA_VERSION == 5
    assert got_header["config"] == {"rng_seed": 3}
    assert set(got_header) == {"schema_version", "kind", "config"}
    assert got_records == [{"round": 0, "metric": 0.5}]


def test_read_jsonl_rejects_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_jsonl(empty)

    # Lines are named by their physical number, blank lines counted.
    header = '{"schema_version":1,"kind":"stage1"}'
    for text, says in (
        (f"{header}\nnot json\n", "malformed JSON on line 2 "),
        (f'{header}\n{{"round":0}}\n\n{{"round":1}}\n{{"round":2\n', "malformed JSON on line 5 "),
        ('\n\n{"round":0}\n', "missing log header on line 3 "),
        ("\n{oops\n", "malformed JSON on line 2 "),
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        with pytest.raises(ValueError, match=says):
            read_jsonl(bad)


def test_split_log_parses_only_the_header(tmp_path):
    text = '{"kind":"stage1","schema_version":1}\n\nnot json\n{"round":0}\n'
    header, lines = split_log(text, "log.jsonl")
    assert header == {"kind": "stage1", "schema_version": 1}
    assert lines == [(1, '{"kind":"stage1","schema_version":1}'), (3, "not json"), (4, '{"round":0}')]
    for bad, match in (("", "empty"), ("{oops\n", "line 1"), ('{"round":0}\n', "header")):
        with pytest.raises(ValueError, match=match):
            split_log(bad, "log.jsonl")


def test_run_aborted_carries_partial_state():
    log = RunLog()
    log.append(round=0)
    exc = RunAborted("boom", stage_logs={"stage1": log})
    assert exc.stage_logs["stage1"] is log


@pytest.mark.parametrize(
    "bound, value, says",
    [
        ("positive", 0.0, "x must be positive, got 0.0"),
        ("positive", math.inf, "x must be positive, got inf"),
        (">= 0", -1e-300, "x must be >= 0, got -1e-300"),
        (">= 0", math.nan, "x must be >= 0, got nan"),
        (None, -math.inf, "x must be finite, got -inf"),
    ],
)
def test_require_floats_names_the_setting_and_its_bound(bound, value, says):
    require_floats(bound, w=1.0)  # a setting within every bound passes
    with pytest.raises(SettingError) as info:
        require_floats(bound, w=1.0, x=value, y=value)
    assert (info.value.field, str(info.value)) == ("x", says)


def test_require_floats_admits_the_edges_of_its_bounds():
    require_floats("positive", x=5e-324)
    require_floats(">= 0", x=0.0, y=-0.0)
    require_floats(None, x=-1.7976931348623157e308)
