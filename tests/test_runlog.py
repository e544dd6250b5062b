"""Seed derivation, canonical serialization, and JSON-lines round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from auxmix.runlog import (
    SCHEMA_VERSION,
    RunAborted,
    RunLog,
    canonical_dumps,
    derive_seed,
    make_header,
    read_jsonl,
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

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema_version":1,"kind":"stage1"}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        read_jsonl(bad)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"round":0}\n')
    with pytest.raises(ValueError, match="header"):
        read_jsonl(headerless)


def test_split_log_parses_only_the_header(tmp_path):
    text = '{"kind":"stage1","schema_version":1}\n\nnot json\n{"round":0}\n'
    header, lines = split_log(text, "log.jsonl")
    assert header == {"kind": "stage1", "schema_version": 1}
    assert lines == ['{"kind":"stage1","schema_version":1}', "not json", '{"round":0}']
    for bad, match in (("", "empty"), ("{oops\n", "line 1"), ('{"round":0}\n', "header")):
        with pytest.raises(ValueError, match=match):
            split_log(bad, "log.jsonl")


def test_run_aborted_carries_partial_state():
    log = RunLog()
    log.append(round=0)
    exc = RunAborted("boom", stage_logs={"stage1": log})
    assert exc.stage_logs["stage1"] is log
