"""Parsing for the four newline-delimited JSON input streams.

One JSON object per line.  The streams are:

* statements: classified citation statements
  ``{"citing_id", "cited_id", "citing_year", "class"}``
* references: raw reference-list events
  ``{"citing_id", "cited_id", "citing_year"}``
* publications: metadata linking a publication to a journal and a field
  ``{"id", "journal_id"?, "field"?, "year"?}``
* affiliations: ``{"pub_id", "institution_ids"}``

Reading is streaming: ``stream`` consumes a file line by line and never
holds more than one record, so memory use is independent of file size.
Unknown keys are ignored for forward compatibility; missing or mistyped
required keys are parse errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterator, NamedTuple, TypeVar

from .errors import ConfigError, ParseError

__all__ = [
    "STANCE_CLASSES",
    "MIN_YEAR",
    "max_year",
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


def max_year() -> int:
    return _MAX_YEAR


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


def _load_object(line: str) -> dict:
    # One scan from the first character covers a well-formed line; anything
    # else (leading whitespace, trailing data, a BOM, a defect) goes through
    # json.loads, so what is accepted and every error message stay its own.
    try:
        obj, end = _scan_once(line, 0)
        clean = line[end:] in _LINE_ENDS
    except (StopIteration, ValueError):
        clean = False
    if not clean:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal past the digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


# The parsers check each key inline; these build the message once a check
# has failed.  JSON yields exact types, so ``type(x) is int`` excludes bools:
# a year of true is a defect, not 1.


def _str_error(obj: dict, key: str) -> ParseError:
    if key not in obj:
        return ParseError(f"missing key {key!r}")
    return ParseError(f"key {key!r} must be a nonempty string, got {obj[key]!r}")


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
    if journal_id is not None and (type(journal_id) is not str or not journal_id):
        raise ParseError(f"key 'journal_id' must be a nonempty string, got {journal_id!r}")
    field = obj.get("field")
    if field is not None and (type(field) is not str or not field):
        raise ParseError(f"key 'field' must be a nonempty string, got {field!r}")
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
    return AffiliationRecord(pub_id, frozenset(raw))


# Serialization mirrors parsing so record -> line -> record is the identity.
# Keys are written in schema order and absent optionals are omitted.


def dump_statement(rec: StatementRecord) -> str:
    return json.dumps(
        {
            "citing_id": rec.citing_id,
            "cited_id": rec.cited_id,
            "citing_year": rec.citing_year,
            "class": rec.stance,
        },
        separators=(",", ":"),
        ensure_ascii=False,
    )


def dump_reference(rec: ReferenceEvent) -> str:
    return json.dumps(
        {
            "citing_id": rec.citing_id,
            "cited_id": rec.cited_id,
            "citing_year": rec.citing_year,
        },
        separators=(",", ":"),
        ensure_ascii=False,
    )


def dump_publication(rec: PublicationRecord) -> str:
    obj: dict = {"id": rec.id}
    if rec.journal_id is not None:
        obj["journal_id"] = rec.journal_id
    if rec.field is not None:
        obj["field"] = rec.field
    if rec.year is not None:
        obj["year"] = rec.year
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def dump_affiliation(rec: AffiliationRecord) -> str:
    return json.dumps(
        {"pub_id": rec.pub_id, "institution_ids": sorted(rec.institution_ids)},
        separators=(",", ":"),
        ensure_ascii=False,
    )


@dataclass(slots=True)
class SkipReport:
    """Tally of lines skipped in lenient mode."""

    skipped: int = 0
    first_bad_line: int | None = None

    def record_skip(self, line_no: int) -> None:
        self.skipped += 1
        if self.first_bad_line is None:
            self.first_bad_line = line_no

    def as_record(self) -> dict:
        return {"skipped": self.skipped, "first_bad_line": self.first_bad_line}


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
    and tallies defects into ``report`` if one is given.  A line that is not
    valid UTF-8 is a bad line like any other: the file is read as bytes and
    decoded one line at a time, so one bad byte costs one line, not the run.

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
                    raise ParseError(exc.message, path=path, line_no=line_no) from exc
                if report is not None:
                    report.record_skip(line_no)
