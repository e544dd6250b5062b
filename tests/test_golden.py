"""Six tiny CLI runs against their frozen projection (see ``golden.py``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from golden import CLOSE, CONFIGS, EXACT, FIXTURE, MODES, RTOL, SCORES, run_projection

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


def _assert_close(got: list, want: list, name: str) -> None:
    """Within ``RTOL`` entrywise; a ``None`` (no posterior yet) must match."""
    assert [g is None for g in got] == [w is None for w in want], name
    pairs = [(g, w) for g, w in zip(got, want) if w is not None]
    if pairs:
        g, w = np.array(pairs, dtype=float).T
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=0.0, err_msg=name)


def test_the_fixture_covers_every_family_and_mode():
    assert sorted(GOLDEN) == sorted(f"{family}/{mode}" for family in CONFIGS for mode in MODES)


@pytest.mark.parametrize("family", sorted(CONFIGS))
@pytest.mark.parametrize("mode", MODES)
def test_run_reproduces_its_golden_projection(family, mode, tmp_path):
    got = run_projection(family, mode, tmp_path)
    want = GOLDEN[f"{family}/{mode}"]
    assert sorted(got) == sorted(want)
    scores_exact = family == "planted"
    for log, field in EXACT + SCORES + CLOSE:
        name = f"{log}.{field}"
        if (log, field) in EXACT or ((log, field) in SCORES and scores_exact):
            assert got[name] == want[name], name
        else:
            values = [got[name]] if log == "report" else got[name]
            expected = [want[name]] if log == "report" else want[name]
            _assert_close(values, expected, name)
