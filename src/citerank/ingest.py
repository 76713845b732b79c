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
from typing import Callable, Iterator, TypeVar

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


def max_year() -> int:
    return date.today().year + 1


@dataclass(frozen=True, slots=True)
class StatementRecord:
    """One classified citation statement.

    ``stance`` is one of STANCE_CLASSES; on the wire the key is ``class``,
    which is a Python keyword and cannot be an attribute name.
    """

    citing_id: str
    cited_id: str
    citing_year: int
    stance: str


@dataclass(frozen=True, slots=True)
class ReferenceEvent:
    """One entry of a reference list: citing work lists cited work."""

    citing_id: str
    cited_id: str
    citing_year: int


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """Metadata for a cited publication; journal and field may be absent."""

    id: str
    journal_id: str | None = None
    field: str | None = None
    year: int | None = None


@dataclass(frozen=True, slots=True)
class AffiliationRecord:
    """Institutions credited on one publication, deduplicated."""

    pub_id: str
    institution_ids: frozenset[str]


T = TypeVar("T")


def _load_object(line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _req_str(obj: dict, key: str) -> str:
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, str) or value == "":
        raise ParseError(f"key {key!r} must be a nonempty string, got {value!r}")
    return value


def _req_year(obj: dict, key: str) -> int:
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    return _check_year(obj[key], key)


def _check_year(value: object, key: str) -> int:
    # bool is an int subtype; a year of true is a defect, not 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"key {key!r} must be an integer year, got {value!r}")
    if not MIN_YEAR <= value <= max_year():
        raise ParseError(
            f"key {key!r} year {value} outside plausible range "
            f"[{MIN_YEAR}, {max_year()}]"
        )
    return value


def parse_statement(line: str) -> StatementRecord:
    """Parse one statement line; raises ParseError on any defect."""
    obj = _load_object(line)
    stance = _req_str(obj, "class")
    if stance not in STANCE_CLASSES:
        raise ParseError(
            f"key 'class' must be one of {', '.join(STANCE_CLASSES)}, got {stance!r}"
        )
    return StatementRecord(
        citing_id=_req_str(obj, "citing_id"),
        cited_id=_req_str(obj, "cited_id"),
        citing_year=_req_year(obj, "citing_year"),
        stance=stance,
    )


def parse_reference(line: str) -> ReferenceEvent:
    """Parse one reference-event line; raises ParseError on any defect."""
    obj = _load_object(line)
    return ReferenceEvent(
        citing_id=_req_str(obj, "citing_id"),
        cited_id=_req_str(obj, "cited_id"),
        citing_year=_req_year(obj, "citing_year"),
    )


def parse_publication(line: str) -> PublicationRecord:
    """Parse one publication metadata line; optional keys may be absent or null."""
    obj = _load_object(line)
    journal_id = obj.get("journal_id")
    if journal_id is not None and (not isinstance(journal_id, str) or journal_id == ""):
        raise ParseError(f"key 'journal_id' must be a nonempty string, got {journal_id!r}")
    field = obj.get("field")
    if field is not None and (not isinstance(field, str) or field == ""):
        raise ParseError(f"key 'field' must be a nonempty string, got {field!r}")
    year = obj.get("year")
    if year is not None:
        year = _check_year(year, "year")
    return PublicationRecord(
        id=_req_str(obj, "id"), journal_id=journal_id, field=field, year=year
    )


def parse_affiliation(line: str) -> AffiliationRecord:
    """Parse one affiliation line; institution_ids must be an array of ids."""
    obj = _load_object(line)
    pub_id = _req_str(obj, "pub_id")
    raw = obj.get("institution_ids")
    if not isinstance(raw, list):
        raise ParseError(
            f"key 'institution_ids' must be an array of strings, got {raw!r}"
        )
    for item in raw:
        if not isinstance(item, str) or item == "":
            raise ParseError(f"institution id must be a nonempty string, got {item!r}")
    return AffiliationRecord(pub_id=pub_id, institution_ids=frozenset(raw))


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
