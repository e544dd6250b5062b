"""Deterministic logging and seed derivation shared by both controller stages.

Run logs are JSON-lines files whose first line is a header record carrying
the normalized run configuration.  Serialization is canonical (sorted keys,
no whitespace) so that replaying a run reproduces the file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# The log format this build writes and replays; plot-utilities reads stage-1
# logs from version 1 on.  What each version dropped: README, "Run logs".
SCHEMA_VERSION = 5

# The most mini-batches a config may ask for, in each of stage 1
# (n_rounds * batches_per_round) and the stage-2 trainings with their baseline
# (total_batches * (n_samples + 1)).  A larger setting is rejected at load
# time.  This bounds run time; it is not a setting.
MAX_WORK_BATCHES = 2**26


def derive_seed(*parts: object) -> int:
    """A seed in ``[0, 2**64)`` for ``numpy.random.default_rng``, the same on
    every platform and build: the first eight bytes, little-endian, of the
    sha256 of the ``str`` of each label (seeds, stage names, round indices)
    joined with ``:``."""
    if not parts:
        raise ValueError("derive_seed requires at least one part")
    data = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(record: dict) -> str:
    """Serialize ``record`` to the canonical JSON form used in run logs.

    Keys are sorted and separators carry no whitespace, so equal records
    always serialize to equal byte strings.  Records hold plain values
    built by their producers; a NumPy integer, bool or array raises
    ``TypeError`` here, while an ``np.float64`` (a ``float`` subclass)
    serializes as the equal ``float``.
    """
    return _CANONICAL_ENCODER.encode(record)


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


def require_floats(bound: str | None, **settings: float) -> None:
    """Raise :class:`SettingError` for the first setting that is not finite
    and, for ``bound`` ``"positive"`` or ``">= 0"``, within it."""
    for name, value in settings.items():
        if not math.isfinite(value) or (value <= 0 if bound == "positive" else bound and value < 0):
            raise SettingError(name, f"{name} must be {bound or 'finite'}, got {value}")


def require_work(factors: dict[str, int]) -> None:
    """Raise :class:`SettingError`, naming the largest factor, when the
    product of ``factors`` exceeds :data:`MAX_WORK_BATCHES`."""
    work = math.prod(int(v) for v in factors.values())
    if work > MAX_WORK_BATCHES:
        name = max(factors, key=factors.get)
        problem = f"the run would train {work} mini-batches, over the budget of {MAX_WORK_BATCHES}"
        raise SettingError(name, f"{problem} (MAX_WORK_BATCHES); reduce {name}")


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
        return list(map(_CANONICAL_ENCODER.encode, records))  # canonical_dumps without a call per record

    def text(self, header: dict | None = None) -> str:
        """The exact file text: every line of :meth:`lines` ends with a newline."""
        lines = self.lines(header)
        return "\n".join([*lines, ""]) if lines else ""


def make_header(kind: str, config: dict) -> dict:
    """Build the first-line header record for a run log."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config}


def loads_line(text: str, lineno: int, path: str | Path) -> Any:
    """Decode one line of a run log; ``lineno`` counts from 1 and names it in errors."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON on line {lineno} of {path}: {exc}") from exc


def split_log(raw: str, path: str | Path) -> tuple[dict, list[tuple[int, str]]]:
    """Parse and check a run log's header; return it with every non-blank
    line, the header's included, as ``(lineno, text)``.

    ``lineno`` counts physical lines from 1, blank ones included, as replay
    does.  Only the first non-blank line is parsed, so callers that compare
    lines as text (replay) never decode the records.  Raises ``ValueError``
    if the text holds no such line or it is not a JSON header record.
    """
    lines = [(i, ln) for i, ln in enumerate(raw.split("\n"), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty run log: {path}")
    lineno, first = lines[0]
    header = loads_line(first, lineno, path)
    if not isinstance(header, dict) or "schema_version" not in header or "kind" not in header:
        raise ValueError(f"missing log header on line {lineno} of {path}")
    return header, lines


def check_header(header: dict, kinds: tuple[str, ...], oldest: int, verb: str) -> None:
    """Raise ``ValueError`` unless a :func:`split_log` header is of one of
    ``kinds``, at a schema version from ``oldest`` to :data:`SCHEMA_VERSION`,
    and carries a config mapping; ``verb`` says what the caller does with it."""
    kind, version = header["kind"], header["schema_version"]
    if kind not in kinds:
        raise ValueError(f"log of kind {kind!r}")
    if not is_int(version) or version not in range(oldest, SCHEMA_VERSION + 1):
        window = "version" if oldest == SCHEMA_VERSION else f"versions {oldest} to"
        raise ValueError(
            f"log schema version {version!r}, this build {verb} {window} {SCHEMA_VERSION}"
        )
    if not isinstance(header.get("config"), dict):
        raise ValueError("log header carries no config")


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a run log, returning ``(header, records)``; raises ``ValueError``
    as :func:`split_log` does, or for a line that is not valid JSON."""
    header, lines = split_log(Path(path).read_text(encoding="utf-8"), path)
    return header, [loads_line(ln, i, path) for i, ln in lines[1:]]
