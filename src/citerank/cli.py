"""Command-line interface.

Subcommands: aggregate, rank, fields, correlate, validate.  Tables and
reports go to stdout (or --out); diagnostics go to stderr as one JSON
record per line so they survive piping the table somewhere else.

Option values resolve in precedence order: explicit flag, then config file
(--config or the CITERANK_CONFIG environment variable), then built-in
default.  The config file is flat ``key = value`` lines whose keys mirror
the long flag names without the dashes in front.

Exit codes: 0 success, 1 usage or configuration, 2 data, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import IO, Callable, Iterator, Sequence

from .aggregate import (
    Store,
    Window,
    build_store,
    count_statement_excess,
    dump_store,
    load_store,
)
from .errors import ConfigError, DataError, ParseError
from .ingest import (
    SkipReport,
    parse_affiliation,
    parse_publication,
    parse_reference,
    parse_score,
    parse_statement,
    stream,
)
from .linking import ENTITY_KINDS, build_link_tables
from .metrics import SiConfig
from .rank import (
    FORMATS,
    METRICS,
    RankSpec,
    correlate,
    field_breakdown,
    rank_entities,
    require_plain_store,
    write_breakdown,
    write_rows,
)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

CONFIG_ENV_VAR = "CITERANK_CONFIG"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for data
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# -- option plumbing -------------------------------------------------------


def _to_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _to_nonneg(raw: str) -> int:
    value = _to_int(raw)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _to_pos(raw: str) -> int:
    value = _to_int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _to_finite_above(raw: str, bound: int, not_a_number: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(not_a_number) from None
    if not value > bound:
        raise ValueError(f"must be > {bound}, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _to_exponent(raw: str) -> float:
    return _to_finite_above(raw, 0, f"not a number: {raw!r}")


def _to_log_base(raw: str) -> float:
    if raw == "e":
        return math.e
    return _to_finite_above(raw, 1, f"must be 'e' or a number, got {raw!r}")


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_choice(*choices: str) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {raw!r}")
        return raw

    return convert


@dataclass(frozen=True)
class Opt:
    """One resolvable option: flag, config key, conversion, default."""

    name: str
    convert: Callable[[str], object]
    default: object = None
    help: str = ""
    is_flag: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


OPT_STATEMENTS = Opt("statements", str, help="classified statement stream (NDJSON)")
OPT_REFERENCES = Opt("references", str, help="reference event stream (NDJSON)")
OPT_PUBS = Opt("pubs", str, help="publication metadata stream (NDJSON)")
OPT_AFFILIATIONS = Opt("affiliations", str, help="affiliation stream (NDJSON)")
OPT_FROM_YEAR = Opt("from-year", _to_int, default=2024, help="window start, citing year")
OPT_TO_YEAR = Opt("to-year", _to_int, default=2024, help="window end, citing year")
OPT_ENTITY = Opt(
    "entity", _to_choice(*ENTITY_KINDS), help="entity kind to tally or expect"
)
OPT_GROUP_BY_FIELD = Opt(
    "group-by-field",
    _to_bool,
    default=False,
    help="keep one tally per (entity, field) pair",
    is_flag=True,
)
OPT_BY = Opt("by", _to_choice(*METRICS), default="si", help="ranking metric")
OPT_EXPONENT = Opt("exponent", _to_exponent, default=2.0, help="stance-quality exponent")
OPT_LOG_BASE = Opt(
    "log-base", _to_log_base, default=10.0, help="score logarithm base: 10, e, or a number"
)
OPT_MIN_VALENCED = Opt(
    "min-valenced", _to_nonneg, default=0, help="minimum supporting+contrasting"
)
OPT_MIN_REFERENCES = Opt(
    "min-references", _to_nonneg, default=0, help="minimum reference count"
)
OPT_TOP = Opt("top", _to_pos, help="emit only the first k rows")
OPT_FORMAT = Opt("format", _to_choice(*FORMATS), default="md", help="output format")
OPT_OUT = Opt("out", str, help="output file (default stdout)")
OPT_MODE = Opt(
    "mode", _to_choice("strict", "lenient"), default="strict", help="parse mode"
)
OPT_SCORES = Opt(
    "scores", str, help="external per-entity score file (NDJSON id/value)"
)

COMMAND_OPTS: dict[str, list[Opt]] = {
    "aggregate": [
        OPT_STATEMENTS,
        OPT_REFERENCES,
        OPT_PUBS,
        OPT_AFFILIATIONS,
        OPT_FROM_YEAR,
        OPT_TO_YEAR,
        OPT_ENTITY,
        OPT_GROUP_BY_FIELD,
        OPT_MODE,
        OPT_OUT,
    ],
    "rank": [
        OPT_BY,
        OPT_ENTITY,
        OPT_EXPONENT,
        OPT_LOG_BASE,
        OPT_MIN_VALENCED,
        OPT_MIN_REFERENCES,
        OPT_TOP,
        OPT_FORMAT,
        OPT_OUT,
    ],
    "fields": [OPT_EXPONENT, OPT_LOG_BASE, OPT_FORMAT, OPT_OUT],
    "correlate": [OPT_SCORES, OPT_BY, OPT_EXPONENT, OPT_LOG_BASE, OPT_OUT],
    "validate": [OPT_STATEMENTS, OPT_REFERENCES, OPT_PUBS, OPT_AFFILIATIONS],
}

# every key any subcommand understands, so one config file can serve them all
ALL_OPTION_NAMES = sorted({opt.name for opts in COMMAND_OPTS.values() for opt in opts})


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc.reason}") from exc
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in ALL_OPTION_NAMES:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, opts: list[Opt]) -> dict[str, object]:
    """Apply precedence flag > config file > default, one conversion path."""
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config_values = _read_config(config_path) if config_path else {}
    resolved: dict[str, object] = {}
    for opt in opts:
        raw = getattr(args, opt.dest)
        if raw is None:
            raw = config_values.get(opt.name)
        if raw is None:
            resolved[opt.name] = opt.default
            continue
        try:
            resolved[opt.name] = opt.convert(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for --{opt.name}: {exc}") from exc
    return resolved


def _require_paths(resolved: dict[str, object], names: Sequence[str]) -> None:
    for name in names:
        path = resolved[name]
        if path is None:
            raise ConfigError(f"missing required --{name}")
        if not os.path.exists(path):
            raise ConfigError(f"--{name}: no such path: {path}")


@contextmanager
def _output(out_path: object) -> Iterator[IO[str]]:
    """stdout, or the --out file opened for writing.

    Commands enter it only once every input is read and the result exists,
    so a run that fails before then leaves --out untouched.
    """
    if out_path is None:
        yield sys.stdout
    else:
        with open(str(out_path), "w", encoding="utf-8") as handle:
            yield handle


def _diag(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)


def _diag_consistency(store: Store) -> None:
    flagged = count_statement_excess(store)
    _diag(
        {
            "event": "consistency",
            "entities_flagged": flagged,
            "status": "FAILED" if flagged else "ok",
        }
    )


def _si_config(resolved: dict[str, object]) -> SiConfig:
    return SiConfig(
        exponent=float(resolved["exponent"]), log_base=float(resolved["log-base"])
    )


def _load_store_file(path: str) -> Store:
    return load_store(stream(path, str), path)


def _read_scores(path: str) -> dict[str, float]:
    """External per-entity scores: one {"id", "value"} object per line,
    each id once."""
    scores: dict[str, float] = {}
    # strict mode yields one record per line, so records count lines
    for line_no, (entity_id, number) in enumerate(stream(path, parse_score), start=1):
        if entity_id in scores:
            # every earlier line added one id, in file order
            first = list(scores).index(entity_id) + 1
            raise ParseError(
                f"duplicate id {entity_id!r}, first on line {first}", path=path, line_no=line_no
            )
        scores[entity_id] = number
    return scores


# -- subcommands -----------------------------------------------------------


def cmd_aggregate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTS["aggregate"])
    _require_paths(resolved, ("statements", "references", "pubs", "affiliations"))
    if resolved["entity"] is None:
        raise ConfigError("missing required --entity")
    window = Window(int(resolved["from-year"]), int(resolved["to-year"]))
    mode = str(resolved["mode"])

    reports: list[tuple[str, SkipReport]] = []

    def records(name: str, parser_fn):
        path = str(resolved[name])
        report = SkipReport()
        reports.append((path, report))
        return stream(path, parser_fn, mode=mode, report=report)

    tables = build_link_tables(
        records("pubs", parse_publication), records("affiliations", parse_affiliation)
    )
    store = build_store(
        records("statements", parse_statement),
        records("references", parse_reference),
        tables,
        window,
        str(resolved["entity"]),
        by_field=bool(resolved["group-by-field"]),
    )
    text = dump_store(store)
    with _output(resolved["out"]) as out:
        out.write(text)

    if mode == "lenient":
        for path, report in reports:
            _diag({"event": "ingest", "file": path, **report.as_record()})
    _diag(
        {
            "event": "link_tables",
            "publication_overwrites": tables.publication_overwrites,
            "affiliation_overwrites": tables.affiliation_overwrites,
        }
    )
    _diag({"event": "aggregate", **store.diagnostics.as_dict()})
    _diag_consistency(store)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTS["rank"])
    store = _load_store_file(args.store)
    spec = RankSpec(
        metric=str(resolved["by"]),
        kind=None if resolved["entity"] is None else str(resolved["entity"]),
        min_valenced=int(resolved["min-valenced"]),
        min_references=int(resolved["min-references"]),
        top_k=None if resolved["top"] is None else int(resolved["top"]),
        si_config=_si_config(resolved),
    )
    require_plain_store(store, "rank")
    rows, report = rank_entities(store, spec)
    with _output(resolved["out"]) as out:
        write_rows(rows, str(resolved["format"]), out)
    _diag({"event": "exclusions", **asdict(report)})
    _diag_consistency(store)
    return EXIT_OK


def cmd_fields(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTS["fields"])
    store = _load_store_file(args.store)
    rows = field_breakdown(store, _si_config(resolved))
    with _output(resolved["out"]) as out:
        write_breakdown(rows, str(resolved["format"]), out)
    _diag({"event": "breakdown", "rows": len(rows)})
    return EXIT_OK


def cmd_correlate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTS["correlate"])
    _require_paths(resolved, ("scores",))
    store = _load_store_file(args.store)
    scores = _read_scores(str(resolved["scores"]))
    result = correlate(store, scores, str(resolved["by"]), _si_config(resolved))
    with _output(resolved["out"]) as out:
        out.write(json.dumps(asdict(result), ensure_ascii=False) + "\n")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, COMMAND_OPTS["validate"])
    stream_parsers = (
        ("statements", parse_statement),
        ("references", parse_reference),
        ("pubs", parse_publication),
        ("affiliations", parse_affiliation),
    )
    checked = 0
    defects = 0
    for name, parser_fn in stream_parsers:
        path = resolved[name]
        if path is None:
            continue
        _require_paths(resolved, (name,))
        checked += 1
        report = SkipReport()
        records = 0
        for _ in stream(str(path), parser_fn, mode="lenient", report=report):
            records += 1
        print(
            json.dumps(
                {"file": str(path), "records": records, **report.as_record()},
                ensure_ascii=False,
            )
        )
        defects += report.skipped
    if checked == 0:
        raise ConfigError("nothing to validate: pass at least one input flag")
    return EXIT_OK if defects == 0 else EXIT_DATA


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="citerank",
        description="Stance-aware citation tallies and rankings.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_command(name: str, handler, help_text: str, store_positional: bool):
        sub = subparsers.add_parser(name, help=help_text)
        if store_positional:
            sub.add_argument("store", help="serialized aggregate store (NDJSON)")
        for opt in COMMAND_OPTS[name]:
            if opt.is_flag:
                sub.add_argument(
                    f"--{opt.name}",
                    dest=opt.dest,
                    action="store_const",
                    const="true",
                    default=None,
                    help=opt.help,
                )
            else:
                sub.add_argument(
                    f"--{opt.name}", dest=opt.dest, default=None, help=opt.help
                )
        sub.add_argument("--config", default=None, help="config file (key = value lines)")
        sub.set_defaults(handler=handler)

    add_command(
        "aggregate",
        cmd_aggregate,
        "build an aggregate store from the four input streams",
        store_positional=False,
    )
    add_command("rank", cmd_rank, "rank a store's entities", store_positional=True)
    add_command(
        "fields",
        cmd_fields,
        "per-field breakdown from a per-field store",
        store_positional=True,
    )
    add_command(
        "correlate",
        cmd_correlate,
        "correlate a plain store's scores with an external score file",
        store_positional=True,
    )
    add_command(
        "validate", cmd_validate, "check input files for defects", store_positional=False
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits 0
            return int(exc.code or 0)
        if getattr(args, "handler", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
