"""Command-line front end: run pipelines, replay runs, export density CSVs.

Subcommands: ``run``, ``plot-utilities``, ``replay``, ``validate-config``.
Exit codes: 0 success, 1 runtime failure (partial logs are kept), 2 usage or
config error.  The ``AUTOSEM_OUT`` environment variable overrides the output
root; an explicit ``--out`` beats both it and the config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest
from pathlib import Path

from .bandit import DENSITY_GRID_SIZE, MAX_DENSITY_GRID_SIZE, BanditConfig, belief_path
from .bandit import utility_density_table
from .config import (
    ConfigError,
    dump_config,
    load_config,
    read_config,
    to_pipeline_config,
)
from .pipeline import PIPELINE_MODES, RUN_FILES, PipelineConfig, PipelineReport, run_pipeline
from .pipeline import density_csv, run_files, write_run_files
from .runlog import (
    SCHEMA_VERSION,
    RunAborted,
    canonical_dumps,
    check_header,
    loads_line,
    read_jsonl,
    split_log,
)

OUTPUT_ROOT_ENV = "AUTOSEM_OUT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _parse_seed_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an inclusive range like 0..4, got {text!r}"
        ) from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return lo, hi


def _parse_override(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    if not key:
        raise argparse.ArgumentTypeError(f"empty key in override {text!r}")
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auxmix",
        description="Two-stage auxiliary-task selection and mixing-ratio search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline run from a config file")
    p_run.add_argument("config", help="path to the YAML run config")
    p_run.add_argument("--out", default=None, help="output directory for this run")
    p_run.add_argument(
        "--mode",
        choices=PIPELINE_MODES,
        default=None,
        help="override the config's pipeline mode",
    )
    p_run.add_argument(
        "--set",
        dest="overrides",
        type=_parse_override,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key by dotted path, e.g. bandit.gamma=0.2",
    )
    p_run.add_argument(
        "--seeds",
        type=_parse_seed_range,
        default=None,
        metavar="A..B",
        help="run one pipeline per seed in the inclusive range, in parallel",
    )
    p_run.add_argument("--force", action="store_true", help="allow overwriting a non-empty run directory")
    p_run.add_argument(
        "--grid-size", type=int, default=DENSITY_GRID_SIZE, help="theta grid for the density CSV"
    )

    p_plot = sub.add_parser("plot-utilities", help="export the utility density table as CSV")
    p_plot.add_argument("runlog", help="stage-1 JSON-lines log")
    p_plot.add_argument("--grid-size", type=int, default=DENSITY_GRID_SIZE)
    p_plot.add_argument("--out", default=None, help="CSV path (default: utilities.csv next to the log)")

    p_replay = sub.add_parser("replay", help="re-execute a logged run and verify bit-identity")
    p_replay.add_argument("path", help="run directory, or one stage-1 or stage-2 JSON-lines log")

    p_val = sub.add_parser("validate-config", help="validate a config file and print its normalized form")
    p_val.add_argument("config", help="path to the YAML run config")

    return parser


def _resolve_run_dir(out_flag: str | None, output_dir: str | None, config_path: str) -> Path:
    if out_flag:
        return Path(out_flag)
    name = output_dir if output_dir else os.path.join("runs", Path(config_path).stem)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / name
    return Path(name)


def _outcome(config: PipelineConfig) -> PipelineReport | RunAborted:
    """The run's report, or the :class:`RunAborted` that ends it."""
    try:
        return run_pipeline(config)
    except RunAborted as exc:
        return exc


def _execute_run(config: PipelineConfig, run_dir: Path, force: bool, grid_size: int) -> tuple[int, str]:
    try:
        busy = any(run_dir.iterdir())
    except FileNotFoundError:
        busy = False
    except OSError as exc:  # a regular file at, or on the way to, the run directory
        return EXIT_USAGE, f"error: cannot write {run_dir}: {exc}"
    if busy and not force:
        return EXIT_USAGE, f"refusing to overwrite non-empty {run_dir} (use --force)"
    try:
        outcome = _outcome(config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into exit codes
        return EXIT_RUNTIME, f"run failed: {exc}"
    paths = write_run_files(run_files(outcome, config.normalized, grid_size), run_dir)
    if isinstance(outcome, RunAborted):  # the writer removed an earlier run's report and CSV
        return EXIT_RUNTIME, f"run aborted, partial logs kept in {run_dir}: {outcome}"
    return EXIT_OK, (
        f"mode={outcome.mode} selected={list(outcome.selection.selected_task_ids)} "
        f"best_ratio={list(outcome.best_ratio.counts)} best_score={outcome.best_score:.4f} "
        f"baseline={outcome.baseline_score:.4f} -> {paths['report.json']}"
    )


def _run_one_seed(job: tuple) -> tuple[int, int, str]:
    normalized, seed, run_dir_text, force, grid_size = job
    seeded = {**normalized, **{s: {**normalized[s], "rng_seed": seed} for s in ("bandit", "stage2")}}
    code, message = _execute_run(to_pipeline_config(seeded), Path(run_dir_text), force, grid_size)
    return seed, code, message


def cmd_run(args: argparse.Namespace) -> int:
    overrides = dict(args.overrides)
    if args.mode:
        overrides["mode"] = args.mode
    try:
        config = to_pipeline_config(read_config(args.config, overrides))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run_dir = _resolve_run_dir(args.out, config.normalized["output_dir"], args.config)

    if args.seeds is None:
        code, message = _execute_run(config, run_dir, args.force, args.grid_size)
        print(message, file=sys.stderr if code else sys.stdout)
        return code

    lo, hi = args.seeds
    jobs = [
        (config.normalized, seed, str(run_dir / f"seed-{seed}"), args.force, args.grid_size)
        for seed in range(lo, hi + 1)
    ]
    # Imported here: the pool loads about 30 modules that no other command needs.
    from concurrent.futures import ProcessPoolExecutor

    worst = EXIT_OK
    with ProcessPoolExecutor() as pool:
        for seed, code, message in pool.map(_run_one_seed, jobs):
            print(f"[seed {seed}] {message}", file=sys.stderr if code else sys.stdout)
            worst = max(worst, code)
    return worst


def cmd_plot_utilities(args: argparse.Namespace) -> int:
    try:
        header, records = read_jsonl(args.runlog)
        check_header(header, ("stage1",), 1, "plots")
        bandit = dict(header["config"]["bandit"])
        if bandit.pop("primary_task_id", 0) != 0:  # a key of logs before schema 5, always 0
            raise ValueError("the primary task must be task 0")
        config = BanditConfig(**bandit)
        *_, (alpha, beta) = belief_path(records, config)
        table = utility_density_table(list(zip(alpha, beta)), args.grid_size)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: malformed run log {args.runlog}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out) if args.out else Path(args.runlog).parent / "utilities.csv"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(density_csv(table), encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(str(out))
    return EXIT_OK


def _first_differing_field(got: object, want: object) -> str:
    """``: field 'KEY'`` for the first key, in sorted order, whose value
    differs between two decoded lines (a missing key differs), else ``""``."""
    if not (isinstance(got, dict) and isinstance(want, dict)):
        return ""
    for key in sorted(got.keys() | want.keys()):
        both = key in got and key in want
        if not both or canonical_dumps(got[key]) != canonical_dumps(want[key]):
            return f": field {key!r}"
    return ""


def _divergence(raw: str | None, expected: str | None, path: Path, is_log: bool) -> str:
    """Say where a run file's text ``raw`` first departs from the ``expected`` text.

    ``None`` is a file that side lacks.  Lines are compared without the
    final newline, whose absence is a divergence of its own.  In a log
    (``is_log``), only the two lines where they first differ are decoded,
    and a line that one side lacks names no field.  A found line there that
    is not valid JSON, a blank one included, raises ``ValueError``.
    """
    if raw is None or expected is None:
        return f"divergence: {path} is {'missing' if raw is None else 'not written by the rerun'}"
    found, want = raw.removesuffix("\n").split("\n"), expected.removesuffix("\n").split("\n")
    if found == want:
        return f"divergence at end of file (line {len(found)} of {path}): no final newline"
    i = next(i for i, (got, line) in enumerate(zip_longest(found, want)) if got != line)
    if not is_log:
        return f"divergence at line {i + 1} of {path}"
    if i >= len(found):  # a line missing from a truncated file
        return f"divergence at round {i - 1} (line {i + 1} of {path})"
    got = loads_line(found[i], i + 1, path)
    logged = got.get("round", i - 1) if isinstance(got, dict) else i - 1
    where = "header" if i == 0 else f"round {logged}"
    field = _first_differing_field(got, json.loads(want[i]) if i < len(want) else None)
    return f"divergence at {where} (line {i + 1} of {path}){field}"


def cmd_replay(args: argparse.Namespace) -> int:
    """Rerun a run directory, or one log, from its config; compare byte for byte.

    A directory's config is its stage-1 log's, and each run file on either
    side must be the one the rerun renders (:func:`run_files`).  A lone log
    is checked alone.  A rerun that aborts renders partial logs, so a
    reproduced aborted run passes too.  A divergence exits 1; an unreadable,
    malformed or other-version log exits 2."""
    target = Path(args.path)
    whole = target.is_dir()
    log = target / "stage1.log.jsonl" if whole else target
    try:
        raw = log.read_bytes().decode("utf-8")  # no newline translation
        header, _ = split_log(raw, log)
        check_header(header, ("stage1", "stage2"), SCHEMA_VERSION, "replays")
        kind = header["kind"]
        paths = {name: target / name for name in RUN_FILES} if whole else {f"{kind}.log.jsonl": log}
        found = {
            name: raw if path == log else path.read_bytes().decode("utf-8")
            for name, path in paths.items()
            if path.exists()
        }
        config = to_pipeline_config(header["config"])
        outcome = _outcome(config)
        rows = found.get("utilities.csv", "").count("\n")  # a header, then a row per task and point
        grid_size = max(1, (rows - 1) // config.bandit.n_tasks) if whole else None
        expected = run_files(outcome, config.normalized, grid_size)
        divergences = [
            _divergence(found.get(name), expected.get(name), path, name.endswith(".jsonl"))
            for name, path in paths.items()
            if found.get(name) != expected.get(name)
        ]
    except (OSError, ValueError) as exc:
        print(f"error: cannot replay {target}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if divergences:
        print("\n".join(divergences), file=sys.stderr)
        return EXIT_RUNTIME
    checked = ", ".join(found) if whole else str(raw.count("\n")) + " lines"
    until = f", up to the abort: {outcome}" if isinstance(outcome, RunAborted) else ""
    print(f"replay ok: {checked} reproduced bit-identically{until}")
    return EXIT_OK


def cmd_validate_config(args: argparse.Namespace) -> int:
    try:
        normalized = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(dump_config(normalized))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= getattr(args, "grid_size", 1) <= MAX_DENSITY_GRID_SIZE:
        print(f"error: --grid-size must lie in [1, {MAX_DENSITY_GRID_SIZE}]", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "run":
        return cmd_run(args)
    if args.command == "plot-utilities":
        return cmd_plot_utilities(args)
    if args.command == "replay":
        return cmd_replay(args)
    return cmd_validate_config(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
