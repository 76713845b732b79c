"""Parsing for the newline-delimited JSON files citerank reads.

One JSON object per line.  The four input streams are:

* statements: classified citation statements
  ``{"citing_id", "cited_id", "citing_year", "class"}``
* references: raw reference-list events
  ``{"citing_id", "cited_id", "citing_year"}``
* publications: metadata linking a publication to a journal and a field
  ``{"id", "journal_id"?, "field"?, "year"?}``
* affiliations: ``{"pub_id", "institution_ids"}``

``correlate`` reads external scores, ``{"id", "value"}``, through
``parse_score``, and ``aggregate.load_store`` reads a store from the lines
``stream`` yields.

Reading is streaming: ``stream`` consumes a file line by line and never
holds more than one record, so memory use is independent of file size.
Unknown keys are ignored for forward compatibility; missing or mistyped
required keys are parse errors.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date
from json.encoder import encode_basestring as _quote
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import ConfigError, ParseError

__all__ = [
    "STANCE_CLASSES",
    "MIN_YEAR",
    "StatementRecord",
    "ReferenceEvent",
    "PublicationRecord",
    "AffiliationRecord",
    "parse_statement",
    "parse_reference",
    "parse_publication",
    "parse_affiliation",
    "dump_statement",
    "dump_reference",
    "dump_publication",
    "dump_affiliation",
    "SkipReport",
    "stream",
]

STANCE_CLASSES = ("supporting", "mentioning", "contrasting")

# The corpus reaches back to the fifteenth century; anything earlier is an
# OCR or metadata defect, and anything past next year has not happened yet.
MIN_YEAR = 1400

# Fixed once when the process starts, so one run checks every line against
# the same bound.
_MAX_YEAR = date.today().year + 1


# Records are named tuples: cheap to build once per line, immutable, and
# compared by value.


class StatementRecord(NamedTuple):
    """One classified citation statement.

    ``stance`` is one of STANCE_CLASSES; on the wire the key is ``class``,
    which is a Python keyword and cannot be an attribute name.
    """

    citing_id: str
    cited_id: str
    citing_year: int
    stance: str


class ReferenceEvent(NamedTuple):
    """One entry of a reference list: citing work lists cited work."""

    citing_id: str
    cited_id: str
    citing_year: int


class PublicationRecord(NamedTuple):
    """Metadata for a cited publication; journal and field may be absent."""

    id: str
    journal_id: str | None = None
    field: str | None = None
    year: int | None = None


class AffiliationRecord(NamedTuple):
    """Institutions credited on one publication, deduplicated."""

    pub_id: str
    institution_ids: frozenset[str]


T = TypeVar("T")

_scan_once = json.JSONDecoder().scan_once
_LINE_ENDS = ("", "\n", "\r\n")


def _decode_line(line: str) -> object:
    """The JSON value of one line, as ``json.loads`` reads it.

    Every defect raises ParseError without a location; only ``stream`` and
    ``aggregate.load_store`` add one.
    """
    # One scan from the first character covers a well-formed line; anything
    # else (leading whitespace, trailing data, a BOM, a defect) goes through
    # json.loads, so what is accepted and every error message stay its own.
    try:
        try:
            obj, end = _scan_once(line, 0)
            if line[end:] in _LINE_ENDS:
                return obj
        except (StopIteration, ValueError):
            pass
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the stack
        raise ParseError("invalid JSON: nested too deeply") from exc


def _json_keys(names: Iterable[str], colon: str = ":") -> tuple[str, ...]:
    """Each name quoted and followed by ``colon``, once per table, not per row."""
    return tuple(_quote(name) + colon for name in names)


def _json_members(keys: tuple[str, ...], values: Iterable, comma: str = ",") -> str:
    """The members of a flat JSON object of str, int, finite float and None
    values, as ``json.dumps(..., ensure_ascii=False)`` writes them with the
    same separators.  Store rows, json table rows and the ``dump_*`` lines
    all come here."""
    members = [
        key + (_quote(value) if type(value) is str else "null" if value is None else repr(value))
        for key, value in zip(keys, values)
    ]
    return comma.join(members)


def _load_object(line: str) -> dict:
    obj = _decode_line(line)
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


# The parsers check each key inline; these build the message once a check
# has failed.  JSON yields exact types, so ``type(x) is int`` excludes bools:
# a year of true is a defect, not 1.


def _str_error(obj: dict, key: str) -> ParseError:
    if key not in obj:
        return ParseError(f"missing key {key!r}")
    value = obj[key]
    if type(value) is str and value:  # fails only the surrogate check
        return ParseError(f"key {key!r} holds a lone surrogate, got {value!r}")
    return ParseError(f"key {key!r} must be a nonempty string, got {value!r}")


_SURROGATE = re.compile("[\ud800-\udfff]")


def _has_lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a surrogate code point, which UTF-8 cannot encode.

    JSON escapes can spell one (``"\\ud800"``) and no output file can hold
    it, so a value that reaches output is checked where it enters.  An
    escaped pair decodes to one astral character, so any surrogate left is
    lone.  ASCII text, nearly all of it, costs one ``isascii`` call.
    """
    return not text.isascii() and _SURROGATE.search(text) is not None


def _year_error(obj: dict, key: str) -> ParseError:
    if key not in obj:
        return ParseError(f"missing key {key!r}")
    value = obj[key]
    if type(value) is not int:
        return ParseError(f"key {key!r} must be an integer year, got {value!r}")
    return ParseError(
        f"key {key!r} year {value} outside plausible range [{MIN_YEAR}, {_MAX_YEAR}]"
    )


def parse_statement(line: str) -> StatementRecord:
    """Parse one statement line; raises ParseError on any defect."""
    obj = _load_object(line)
    stance = obj.get("class")
    if stance not in STANCE_CLASSES:
        if type(stance) is not str or not stance:
            raise _str_error(obj, "class")
        raise ParseError(
            f"key 'class' must be one of {', '.join(STANCE_CLASSES)}, got {stance!r}"
        )
    citing_id = obj.get("citing_id")
    if type(citing_id) is not str or not citing_id:
        raise _str_error(obj, "citing_id")
    cited_id = obj.get("cited_id")
    if type(cited_id) is not str or not cited_id:
        raise _str_error(obj, "cited_id")
    year = obj.get("citing_year")
    if type(year) is not int or not MIN_YEAR <= year <= _MAX_YEAR:
        raise _year_error(obj, "citing_year")
    return StatementRecord(citing_id, cited_id, year, stance)


def parse_reference(line: str) -> ReferenceEvent:
    """Parse one reference-event line; raises ParseError on any defect."""
    obj = _load_object(line)
    citing_id = obj.get("citing_id")
    if type(citing_id) is not str or not citing_id:
        raise _str_error(obj, "citing_id")
    cited_id = obj.get("cited_id")
    if type(cited_id) is not str or not cited_id:
        raise _str_error(obj, "cited_id")
    year = obj.get("citing_year")
    if type(year) is not int or not MIN_YEAR <= year <= _MAX_YEAR:
        raise _year_error(obj, "citing_year")
    return ReferenceEvent(citing_id, cited_id, year)


def parse_publication(line: str) -> PublicationRecord:
    """Parse one publication metadata line; optional keys may be absent or null."""
    obj = _load_object(line)
    journal_id = obj.get("journal_id")
    if journal_id is not None and (
        type(journal_id) is not str or not journal_id or _has_lone_surrogate(journal_id)
    ):
        raise _str_error(obj, "journal_id")
    field = obj.get("field")
    if field is not None and (type(field) is not str or not field or _has_lone_surrogate(field)):
        raise _str_error(obj, "field")
    year = obj.get("year")
    if year is not None and (type(year) is not int or not MIN_YEAR <= year <= _MAX_YEAR):
        raise _year_error(obj, "year")
    pub_id = obj.get("id")
    if type(pub_id) is not str or not pub_id:
        raise _str_error(obj, "id")
    return PublicationRecord(pub_id, journal_id, field, year)


def parse_affiliation(line: str) -> AffiliationRecord:
    """Parse one affiliation line; institution_ids must be an array of ids."""
    obj = _load_object(line)
    pub_id = obj.get("pub_id")
    if type(pub_id) is not str or not pub_id:
        raise _str_error(obj, "pub_id")
    raw = obj.get("institution_ids")
    if not isinstance(raw, list):
        raise ParseError(
            f"key 'institution_ids' must be an array of strings, got {raw!r}"
        )
    for item in raw:
        if type(item) is not str or not item:
            raise ParseError(f"institution id must be a nonempty string, got {item!r}")
        if _has_lone_surrogate(item):
            raise ParseError(f"institution id holds a lone surrogate, got {item!r}")
    return AffiliationRecord(pub_id, frozenset(raw))


def parse_score(line: str) -> tuple[str, float]:
    """Parse one external score line into (id, finite value); raises
    ParseError on any defect."""
    obj = _decode_line(line)
    if not isinstance(obj, dict):
        raise ParseError("expected an object")
    entity_id = obj.get("id")
    value = obj.get("value")
    if not isinstance(entity_id, str) or not entity_id:
        raise ParseError("key 'id' must be a nonempty string")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError("key 'value' must be a number")
    # json.loads reads NaN and Infinity, turns 1e999 into inf, and keeps
    # integers too large for a float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError("key 'value' must be a finite number")
    return entity_id, number


# Serialization mirrors parsing so record -> line -> record is the identity.
# Keys are written in schema order and absent optionals are omitted.

_STATEMENT_KEYS = _json_keys(("citing_id", "cited_id", "citing_year", "class"))
_REFERENCE_KEYS = _json_keys(ReferenceEvent._fields)
_PUBLICATION_KEYS = _json_keys(PublicationRecord._fields)
_AFFILIATION_KEYS = _json_keys(AffiliationRecord._fields)


def dump_statement(rec: StatementRecord) -> str:
    return "{" + _json_members(_STATEMENT_KEYS, rec) + "}"


def dump_reference(rec: ReferenceEvent) -> str:
    return "{" + _json_members(_REFERENCE_KEYS, rec) + "}"


def dump_publication(rec: PublicationRecord) -> str:
    present = [(key, value) for key, value in zip(_PUBLICATION_KEYS, rec) if value is not None]
    return "{" + _json_members(*zip(*present)) + "}"


def dump_affiliation(rec: AffiliationRecord) -> str:
    # the id array, the one value that is not a scalar, is quoted id by id
    ids = ",".join(map(_quote, sorted(rec.institution_ids)))
    pub_id_key, ids_key = _AFFILIATION_KEYS
    return "{" + _json_members((pub_id_key,), (rec.pub_id,)) + "," + ids_key + "[" + ids + "]}"


@dataclass(slots=True)
class SkipReport:
    """Tally of lines skipped in lenient mode."""

    skipped: int = 0
    first_bad_line: int | None = None

    def record_skip(self, line_no: int) -> None:
        self.skipped += 1
        if self.first_bad_line is None:
            self.first_bad_line = line_no


def stream(
    path: str,
    parser: Callable[[str], T],
    mode: str = "strict",
    report: SkipReport | None = None,
) -> Iterator[T]:
    """Yield parsed records from a newline-delimited file.

    Every line becomes exactly one of: a yielded record, a raised ParseError
    (strict), or a counted skip (lenient).  Strict mode stops at the first
    bad line and names the file and line number; lenient mode keeps going
    and tallies defects into ``report`` if one is given.  A line ends at LF,
    so a CRLF line keeps its CR for the parser and a bare CR ends no line.
    A line that is not valid UTF-8 is a bad line like any other: the file
    is read as bytes and decoded one line at a time, so one bad byte costs
    one line, not the run.

    An unreadable path raises OSError from open(), untouched.
    """
    if mode not in ("strict", "lenient"):
        raise ConfigError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"invalid UTF-8: {exc.reason}") from exc
                yield parser(line)
            except ParseError as exc:
                if mode == "strict":
                    raise ParseError(f"{path}:{line_no}: {exc}") from exc
                if report is not None:
                    report.record_skip(line_no)
