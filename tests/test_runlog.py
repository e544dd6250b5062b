"""Seed derivation, canonical serialization, and JSON-lines round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from auxmix.runlog import (
    RunAborted,
    RunLog,
    canonical_dumps,
    derive_seed,
    jsonable,
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


def test_jsonable_converts_numpy():
    out = jsonable(
        {
            "f": np.float64(0.5),
            "i": np.int64(3),
            "b": np.bool_(True),
            "arr": np.array([1.0, 2.0]),
            "nested": [np.float32(1.0), (np.int32(2),)],
        }
    )
    assert out == {"f": 0.5, "i": 3, "b": True, "arr": [1.0, 2.0], "nested": [1.0, [2]]}
    json.dumps(out)  # must be serializable with the stock encoder


def test_runlog_append_and_lines():
    log = RunLog()
    log.append(round=0, reward=1)
    log.append(round=1, reward=np.int64(0))
    assert len(log) == 2
    lines = log.lines()
    assert lines == ['{"reward":1,"round":0}', '{"reward":0,"round":1}']


def _numpy_fields(i):
    return dict(
        round=np.int64(i),
        metric=np.float64(0.1 * i + 1e-17),
        reward=np.bool_(i % 2),
        thetas=np.linspace(0.0, 1.0, 3) + i,
        arms_after=np.column_stack((np.arange(3.0), np.ones(3))),
        nested=(np.float32(0.5), (np.int32(i), [np.float64(2.5), "tag", None]), True),
        plain=[1, 2.25, False],
    )


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def test_runlog_lines_equal_canonical_dumps_of_numpy_records():
    log = RunLog()
    raw = [_numpy_fields(i) for i in range(4)]
    for fields in raw:
        log.append(**fields)
    assert log.lines() == [canonical_dumps(r) for r in log.records]
    assert log.lines() == [canonical_dumps(f) for f in raw]
    header = make_header("stage1", {"seed": np.int64(3)})
    assert log.lines(header) == [canonical_dumps(header)] + log.lines()


def test_runlog_stores_only_plain_python_leaves():
    log = RunLog()
    for i in range(3):
        log.append(**_numpy_fields(i))
    leaf_types = {type(x) for r in log.records for x in _leaves(r)}
    assert leaf_types <= {float, int, bool, str, type(None)}
    assert {float, int, bool} <= leaf_types
    assert all(type(v) is list for r in log.records for v in r.values() if isinstance(v, list))


def test_jsonable_keeps_plain_leaves_and_converts_numpy_subclasses():
    for leaf in (0.25, 7, "s", True, None):
        assert jsonable(leaf) is leaf
    out = jsonable(np.float64(0.1))
    assert type(out) is float and out == 0.1
    assert type(jsonable(np.int64(2**40))) is int
    assert type(jsonable(np.bool_(False))) is bool


def test_runlog_records_come_only_through_append():
    with pytest.raises(TypeError):
        RunLog(records=[{"round": np.int64(0)}])


def test_runlog_write_and_read_roundtrip(tmp_path):
    log = RunLog()
    log.append(round=0, metric=0.5)
    header = make_header("stage1", {"rng_seed": 3}, final_arms=[[1.0, 2.0]])
    path = log.write_jsonl(tmp_path / "deep" / "log.jsonl", header)
    got_header, got_records = read_jsonl(path)
    assert got_header["kind"] == "stage1"
    assert got_header["schema_version"] == 1
    assert got_header["config"] == {"rng_seed": 3}
    assert got_header["final_arms"] == [[1.0, 2.0]]
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
    exc = RunAborted("boom", log=log, stage_logs={"stage1": log})
    assert exc.log is log
    assert exc.stage_logs["stage1"] is log
