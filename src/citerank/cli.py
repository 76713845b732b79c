"""Command-line interface.

Subcommands: aggregate, rank, fields, correlate, validate.  Tables and
reports go to stdout (or --out), in UTF-8 either way; diagnostics go to
stderr as one JSON record per line so they survive piping the table
somewhere else.

Option values resolve in precedence order: explicit flag, then config file
(--config or the CITERANK_CONFIG environment variable), then built-in
default.  OPTIONS lists each option once; its name is both the long flag
and the config key.  COMMANDS lists each subcommand once: its handler,
help, whether it reads a store, and its option names.  A config file holds
``key = value`` lines and ``#`` comments, and a line ends only at LF, CRLF
or CR.  One file may hold every command's keys: a command converts only
the keys it uses.  Relative paths resolve against the working directory.

Exit codes: 0 success, 1 usage or configuration, 2 data, 3 I/O.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import IO, Callable, Iterator, Sequence

from .aggregate import (
    Store,
    Window,
    build_store,
    count_statement_excess,
    dump_store,
    load_store,
    store_line,
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


def _to_int_from(low: int) -> Callable[[str], int]:
    def convert(raw: str) -> int:
        value = _to_int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return convert


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


# name -> (convert, default, help).  The name is both the long flag and the
# config key; an option converted by _to_bool is a flag that takes no value.
OPTIONS: dict[str, tuple[Callable[[str], object], object, str]] = {
    "statements": (str, None, "classified statement stream (NDJSON)"),
    "references": (str, None, "reference event stream (NDJSON)"),
    "pubs": (str, None, "publication metadata stream (NDJSON)"),
    "affiliations": (str, None, "affiliation stream (NDJSON)"),
    "from-year": (_to_int, 2024, "window start, citing year"),
    "to-year": (_to_int, 2024, "window end, citing year"),
    "entity": (_to_choice(*ENTITY_KINDS), None, "entity kind to tally or expect"),
    "group-by-field": (_to_bool, False, "keep one tally per (institution, field) pair"),
    "by": (_to_choice(*METRICS), "si", "ranking metric"),
    "exponent": (_to_exponent, 2.0, "stance-quality exponent"),
    "log-base": (_to_log_base, 10.0, "score logarithm base: 10, e, or a number"),
    "min-valenced": (_to_int_from(0), 0, "minimum supporting+contrasting"),
    "min-references": (_to_int_from(0), 0, "minimum reference count"),
    "top": (_to_int_from(1), None, "emit only the first k rows"),
    "format": (_to_choice(*FORMATS), "md", "output format"),
    "out": (str, None, "output file (default stdout)"),
    "mode": (_to_choice("strict", "lenient"), "strict", "parse mode"),
    "scores": (str, None, "external per-entity score file (NDJSON id/value)"),
}

# the four input streams, in the order aggregate checks and validate reads them
INPUTS = {
    "statements": parse_statement,
    "references": parse_reference,
    "pubs": parse_publication,
    "affiliations": parse_affiliation,
}

def _read_config(path: str) -> dict[str, str]:
    try:
        # utf-8-sig drops one leading byte order mark
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc.reason}") from exc
    values: dict[str, str] = {}
    # universal newlines turned CRLF and CR into LF; splitlines() would also
    # end a line at FF, VT, U+0085, U+2028 and the like
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> None:
    """Set each of the command's options on ``args`` to its typed value:
    flag > config file > default, one conversion path."""
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config_values = _read_config(config_path) if config_path else {}
    for name in COMMANDS[args.command][3]:
        convert, default, _ = OPTIONS[name]
        dest = name.replace("-", "_")
        raw = getattr(args, dest)
        if raw is None:
            raw = config_values.get(name)
        try:
            setattr(args, dest, default if raw is None else convert(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for --{name}: {exc}") from exc


def _require_paths(opts: argparse.Namespace, names: Sequence[str]) -> None:
    for name in names:
        path = getattr(opts, name)
        if path is None:
            raise ConfigError(f"missing required --{name}")
        if not os.path.exists(path):
            raise ConfigError(f"--{name}: no such path: {path}")


@contextmanager
def _output(out_path: str | None) -> Iterator[IO[str]]:
    """stdout, or the --out file opened for writing.

    Commands enter it only once every input is read and the result exists,
    so a run that fails before then leaves --out untouched.
    """
    if out_path is None:
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
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


def _si_config(opts: argparse.Namespace) -> SiConfig:
    return SiConfig(exponent=opts.exponent, log_base=opts.log_base)


def _load_store_file(path: str) -> Store:
    return load_store(stream(path, store_line), path)


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
                f"{path}:{line_no}: duplicate id {entity_id!r}, first on line {first}"
            )
        scores[entity_id] = number
    return scores


# -- subcommands -----------------------------------------------------------


def cmd_aggregate(opts: argparse.Namespace) -> int:
    _require_paths(opts, tuple(INPUTS))
    if opts.entity is None:
        raise ConfigError("missing required --entity")
    window = Window(opts.from_year, opts.to_year)

    reports: list[tuple[str, SkipReport]] = []

    def records(name: str):
        path = getattr(opts, name)
        report = SkipReport()
        reports.append((path, report))
        return stream(path, INPUTS[name], mode=opts.mode, report=report)

    tables = build_link_tables(
        records("pubs"), records("affiliations"), opts.entity, opts.group_by_field
    )
    store = build_store(
        records("statements"),
        records("references"),
        tables,
        window,
        opts.entity,
        by_field=opts.group_by_field,
    )
    link_event = {
        "event": "link_tables",
        "publication_overwrites": tables.publication_overwrites,
        "affiliation_overwrites": tables.affiliation_overwrites,
    }
    # the tables are the largest thing alive; free them before the store text is built
    del tables
    text = dump_store(store)
    with _output(opts.out) as out:
        out.write(text)

    if opts.mode == "lenient":
        for path, report in reports:
            _diag({"event": "ingest", "file": path, **report._asdict()})
    _diag(link_event)
    _diag({"event": "aggregate", **store.diagnostics.as_dict()})
    _diag_consistency(store)
    return EXIT_OK


def cmd_rank(opts: argparse.Namespace) -> int:
    store = _load_store_file(opts.store)
    spec = RankSpec(
        metric=opts.by,
        kind=opts.entity,
        min_valenced=opts.min_valenced,
        min_references=opts.min_references,
        top_k=opts.top,
        si_config=_si_config(opts),
    )
    require_plain_store(store, "rank")
    rows, report = rank_entities(store, spec)
    with _output(opts.out) as out:
        write_rows(rows, opts.format, out)
    _diag({"event": "exclusions", **report._asdict()})
    _diag_consistency(store)
    return EXIT_OK


def cmd_fields(opts: argparse.Namespace) -> int:
    store = _load_store_file(opts.store)
    rows, report = field_breakdown(store, _si_config(opts))
    with _output(opts.out) as out:
        write_breakdown(rows, opts.format, out)
    _diag({"event": "breakdown", "rows": len(rows), "undefined_metric": report.undefined_metric})
    return EXIT_OK


def cmd_correlate(opts: argparse.Namespace) -> int:
    _require_paths(opts, ("scores",))
    store = _load_store_file(opts.store)
    scores = _read_scores(opts.scores)
    result = correlate(store, scores, opts.by, _si_config(opts))
    with _output(opts.out) as out:
        out.write(json.dumps(result._asdict(), ensure_ascii=False) + "\n")
    return EXIT_OK


def cmd_validate(opts: argparse.Namespace) -> int:
    given = [name for name in INPUTS if getattr(opts, name) is not None]
    if not given:
        raise ConfigError("nothing to validate: pass at least one input flag")
    _require_paths(opts, given)
    defects = 0
    for name in given:
        path = getattr(opts, name)
        report = SkipReport()
        records = sum(1 for _ in stream(path, INPUTS[name], mode="lenient", report=report))
        row = {"file": path, "records": records, **report._asdict()}
        print(json.dumps(row, ensure_ascii=False))
        defects += report.skipped
    return EXIT_OK if defects == 0 else EXIT_DATA


# name -> (handler, help, reads a store, option names), in --help order
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, bool, tuple[str, ...]]] = {
    "aggregate": (
        cmd_aggregate,
        "build an aggregate store from the four input streams",
        False,
        (*INPUTS, "from-year", "to-year", "entity", "group-by-field", "mode", "out"),
    ),
    "rank": (
        cmd_rank,
        "rank a store's entities",
        True,
        ("by", "entity", "exponent", "log-base", "min-valenced", "min-references", "top",
         "format", "out"),
    ),
    "fields": (
        cmd_fields,
        "per-field breakdown from a per-field institution store",
        True,
        ("exponent", "log-base", "format", "out"),
    ),
    "correlate": (
        cmd_correlate,
        "correlate a plain store's scores with an external score file",
        True,
        ("scores", "by", "exponent", "log-base", "out"),
    ),
    "validate": (cmd_validate, "check input files for defects", False, tuple(INPUTS)),
}


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="citerank",
        description="Stance-aware citation tallies and rankings.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text, reads_store, option_names) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        if reads_store:
            sub.add_argument("store", help="serialized aggregate store (NDJSON)")
        for opt in option_names:
            convert, _, opt_help = OPTIONS[opt]
            if convert is _to_bool:
                sub.add_argument(f"--{opt}", action="store_const", const="true", help=opt_help)
            else:
                sub.add_argument(f"--{opt}", help=opt_help)
        sub.add_argument("--config", default=None, help="config file (key = value lines)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits 0
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        _resolve(args)
        return COMMANDS[args.command][0](args)
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
    # what import made lives as long as the process: leave it out of every
    # collection, which then scans only what the command builds
    gc.freeze()
    # UTF-8 whatever the locale says: stdout holds the bytes --out would, and
    # a log line stays JSON, with any path byte not UTF-8 as a \udcXX escape
    for out in (sys.stdout, sys.stderr):
        out.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
