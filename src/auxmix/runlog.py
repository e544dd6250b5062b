"""Deterministic logging and seed derivation shared by both controller stages.

Run logs are JSON-lines files whose first line is a header record carrying
the normalized run configuration.  Serialization is canonical (sorted keys,
no whitespace) so that replaying a run reproduces the file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# Version 2 dropped each stage-1 record's beliefs, ``arms_after``, which the
# config and the logged choices and rewards determine (``bandit.belief_path``).
# Version 3 dropped its Thompson draws, ``sampled_thetas``, which the same
# generator redraws from those beliefs (``bandit.thompson_draws``).
# Version 4 dropped the stage-1 header's final beliefs, ``final_arms``, the
# last of ``belief_path``; every header is ``schema_version``, ``kind`` and
# ``config``, so finished and aborted runs write the same record.
SCHEMA_VERSION = 4


def derive_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from an arbitrary sequence of labels.

    The same parts give the same seed on every platform and build: the parts
    are joined with ``:``, hashed with sha256, and the first eight bytes of
    the digest are read as a little-endian unsigned integer.

    Parameters
    ----------
    *parts : object
        Labels identifying the consumer (seeds, stage names, round indices).
        Each is converted with ``str``.

    Returns
    -------
    int
        Seed in ``[0, 2**64)`` suitable for ``numpy.random.default_rng``.
    """
    if not parts:
        raise ValueError("derive_seed requires at least one part")
    data = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def canonical_dumps(record: dict) -> str:
    """Serialize ``record`` to the canonical JSON form used in run logs.

    Keys are sorted and separators carry no whitespace, so equal records
    always serialize to equal byte strings.  Records hold plain values
    built by their producers; a NumPy integer, bool or array raises
    ``TypeError`` here, while an ``np.float64`` (a ``float`` subclass)
    serializes as the equal ``float``.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class SettingError(ValueError):
    """A rejected setting; ``field`` names the constructor parameter at fault.

    The config layer turns ``field`` into the dotted key it reports, so the
    message text is free to say anything.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def is_int(value: object) -> bool:
    """True for a Python or NumPy integer; a bool, a float, NaN and inf are not."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def require_ints(low: int | None, **settings: Any) -> None:
    """Raise :class:`SettingError` for the first setting that is not an integer >= ``low``.

    Integers pass as :func:`is_int` tells them.  With ``low=None`` every
    integer passes, as a seed must.
    """
    bound = "" if low is None else f" >= {low}"
    for name, value in settings.items():
        if not is_int(value) or (low is not None and value < low):
            raise SettingError(name, f"{name} must be an integer{bound}, got {value!r}")


class RunAborted(RuntimeError):
    """Raised when an environment fails mid-run.

    ``stage_logs`` maps a stage kind to its log up to the failure.  The
    stage that fails fills in its own log; the pipeline adds the other, so
    an aborted run writes, and replay regenerates, both partial logs.
    """

    def __init__(self, message: str, stage_logs: dict[str, "RunLog"]):
        super().__init__(message)
        self.stage_logs = stage_logs


@dataclass
class RunLog:
    """Ordered collection of per-round records for one controller stage.

    :meth:`append` is the only way in; it stores the fields as given, so
    producers pass plain values (see :func:`canonical_dumps`).
    """

    records: list[dict] = field(default_factory=list, init=False)

    def append(self, **fields: Any) -> dict:
        self.records.append(fields)
        return fields

    def __len__(self) -> int:
        return len(self.records)

    def lines(self, header: dict | None = None) -> list[str]:
        """Canonical serialization, one JSON document per line.

        When ``header`` is given it becomes the first line; replay relies on
        the header to reconstruct the run configuration.
        """
        records = self.records if header is None else [header, *self.records]
        return list(map(canonical_dumps, records))

    def text(self, header: dict | None = None) -> str:
        """The exact file text: every line of :meth:`lines` ends with a newline."""
        return "".join(line + "\n" for line in self.lines(header))

    def write_jsonl(self, path: str | Path, header: dict | None = None) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.text(header), encoding="utf-8", newline="")
        return path


def make_header(kind: str, config: dict) -> dict:
    """Build the first-line header record for a run log."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config}


def loads_line(text: str, lineno: int, path: str | Path) -> Any:
    """Decode one line of a run log; ``lineno`` counts from 1 and names it in errors."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON on line {lineno} of {path}: {exc}") from exc


def split_log(raw: str, path: str | Path) -> tuple[dict, list[str]]:
    """Parse and check a run log's header; return it with all non-blank lines.

    Only the first line is parsed, so callers that compare lines as text
    (replay) never decode the records.  The returned lines include the
    header line.

    Raises
    ------
    ValueError
        If the text holds no line, the first line is not valid JSON, or it
        is not a header record.
    """
    lines = [ln for ln in raw.split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"empty run log: {path}")
    header = loads_line(lines[0], 1, path)
    if not isinstance(header, dict) or "schema_version" not in header or "kind" not in header:
        raise ValueError(f"missing log header on line 1 of {path}")
    return header, lines


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a run log, returning ``(header, records)``.

    Raises
    ------
    ValueError
        If the file is empty, a line is not valid JSON, or the first line is
        not a header record.
    """
    header, lines = split_log(Path(path).read_text(encoding="utf-8"), path)
    return header, [loads_line(ln, i, path) for i, ln in enumerate(lines[1:], 2)]
