"""Windowed accumulation of statements and reference events into tallies.

The window filters on the *citing* side only: a 2024 window keeps citations
made by 2024 works, whatever the age of the cited work.  Statements count
once per occurrence; reference events count once per distinct
(citing_id, cited_id) pair inside the window, so reloading the same
reference file twice does not double anyone's volume.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring as _quote
from typing import Iterable, NamedTuple

from ._record import Checked, Record
from .errors import ConfigError, DataError, ParseError
from .ingest import LAYOUT_STRING, STANCE_CLASSES, ReferenceEvent, StatementRecord, decode_line
from .ingest import has_lone_surrogate, json_keys, json_members, line_pattern
from .linking import ENTITY_KINDS, EntityKey, LinkTables
from .metrics import COUNTERS, EntityTally, tally_counts

__all__ = [
    "Window",
    "Diagnostics",
    "Store",
    "build_store",
    "count_statement_excess",
    "dump_store",
    "load_store",
]

DIAGNOSTICS_KIND = "diagnostics"

_STANCE_SLOT = {stance: COUNTERS.index(stance) for stance in STANCE_CLASSES}


class _WindowFields(NamedTuple):
    from_year: int
    to_year: int


class Window(Checked, _WindowFields):
    """Inclusive range of citing-publication years, a named tuple."""

    __slots__ = ()

    def _check(self) -> None:
        if self.from_year > self.to_year:
            raise ConfigError(
                f"window is empty: from_year {self.from_year} > to_year {self.to_year}"
            )


class Diagnostics(Record):
    """Per-stream accounting of what happened to every input record.

    Every record lands in exactly one bucket: for statements,
    seen = counted + out_of_window + unresolved; for events the same plus
    duplicate.  Keeping the partition exact is what makes "how much data
    did we lose" answerable without rerunning anything.
    """

    __slots__ = _fields = (
        "statements_seen", "statements_counted", "statements_out_of_window",
        "statements_unresolved", "events_seen", "events_counted", "events_out_of_window",
        "events_unresolved", "events_duplicate",
    )

    def __init__(
        self,
        statements_seen: int = 0,
        statements_counted: int = 0,
        statements_out_of_window: int = 0,
        statements_unresolved: int = 0,
        events_seen: int = 0,
        events_counted: int = 0,
        events_out_of_window: int = 0,
        events_unresolved: int = 0,
        events_duplicate: int = 0,
    ) -> None:
        self.statements_seen = statements_seen
        self.statements_counted = statements_counted
        self.statements_out_of_window = statements_out_of_window
        self.statements_unresolved = statements_unresolved
        self.events_seen = events_seen
        self.events_counted = events_counted
        self.events_out_of_window = events_out_of_window
        self.events_unresolved = events_unresolved
        self.events_duplicate = events_duplicate

    def as_dict(self) -> dict:
        out = self._asdict()
        out["out_of_window"] = self.statements_out_of_window + self.events_out_of_window
        out["unresolved"] = self.statements_unresolved + self.events_unresolved
        return out


class Store(Record):
    """Per-entity tallies, plus the diagnostics of the fold that produced
    them.

    ``build_store`` folds input streams into one and ``load_store`` reads
    one back.  The entity kind, and whether the store is per-field, are
    read from the keys, which share both; a store with no rows has
    neither, so every reader accepts it.  Left out, ``tallies`` and
    ``diagnostics`` start empty.
    """

    __slots__ = _fields = ("tallies", "diagnostics")

    def __init__(
        self,
        tallies: dict[EntityKey, EntityTally] | None = None,
        diagnostics: Diagnostics | None = None,
    ) -> None:
        self.tallies = {} if tallies is None else tallies
        self.diagnostics = Diagnostics() if diagnostics is None else diagnostics


def build_store(
    statements: Iterable[StatementRecord],
    references: Iterable[ReferenceEvent],
    tables: LinkTables,
    window: Window,
    kind: str,
    by_field: bool = False,
) -> Store:
    """Fold both streams into one store.

    ``by_field`` is for institutions only: every key also carries the cited
    publication's field label, and a cited publication without one is
    unresolved.  The result does not depend on the order of either stream.

    Records are counted once per credited group: a journal, a field label or
    an institution set (with ``by_field``, plus the label).  Once both
    streams are read, each group's counts go in full to every entity in it
    (full counting).  A publication with no institution is unresolved.

    ``tables`` built for one kind and grouping (see ``build_link_tables``)
    build only that store; any other raises ``ConfigError``.
    """
    if kind not in ENTITY_KINDS:
        raise ConfigError(f"kind must be one of {ENTITY_KINDS}, got {kind!r}")
    if by_field and kind != "institution":
        raise ConfigError(f"per-field grouping needs kind 'institution', got {kind!r}")
    if tables.kind is not None and (tables.kind, tables.by_field) != (kind, by_field):
        # their other maps are empty, so every record would read as unresolved
        raise ConfigError(
            f"link tables built for kind {tables.kind!r} (by_field={tables.by_field}) "
            f"cannot build a kind {kind!r} (by_field={by_field}) store"
        )
    labels = tables.pub_to_field
    if kind == "institution":
        linked = tables.pub_to_institutions
    else:
        linked = tables.pub_to_journal if kind == "journal" else labels
    # group -> one count per COUNTERS name; the link tables share equal
    # values, so a group's key costs no new strings
    groups: dict[tuple[str | frozenset[str], str | None], list[int]] = {}
    credited: dict[str, list[int]] = {}
    for pub_id, names in linked.items():
        label = labels.get(pub_id) if by_field else None
        if not names or (by_field and label is None):
            continue
        counts = groups.get((names, label))
        if counts is None:
            counts = groups[names, label] = [0, 0, 0, 0]
        credited[pub_id] = counts
    lo, hi = window.from_year, window.to_year
    diag = Diagnostics()

    for rec in statements:
        diag.statements_seen += 1
        if not lo <= rec.citing_year <= hi:
            diag.statements_out_of_window += 1
            continue
        counts = credited.get(rec.cited_id)
        if counts is None:
            diag.statements_unresolved += 1
            continue
        diag.statements_counted += 1
        try:
            counts[_STANCE_SLOT[rec.stance]] += 1
        except KeyError:
            raise ValueError(f"unknown stance {rec.stance!r}") from None

    # a pair counts once however often it recurs; pairs outside the window
    # or unresolvable never enter the set
    seen_pairs: set[str] = set()
    for event in references:
        diag.events_seen += 1
        if not lo <= event.citing_year <= hi:
            diag.events_out_of_window += 1
            continue
        counts = credited.get(event.cited_id)
        if counts is None:
            diag.events_unresolved += 1
            continue
        # one string per pair; the length prefix keeps ("a1", "2") and ("a", "12") apart
        citing = event.citing_id
        pair = f"{len(citing)}:{citing}{event.cited_id}"
        if pair in seen_pairs:
            diag.events_duplicate += 1
            continue
        seen_pairs.add(pair)
        diag.events_counted += 1
        counts[-1] += 1

    # free the pair set and the credit map before the tallies are built
    del seen_pairs, credited
    tallies: dict[EntityKey, EntityTally] = {}
    while groups:
        (names, label), (supporting, mentioning, contrasting, cited) = groups.popitem()
        if not (supporting or mentioning or contrasting or cited):
            continue
        for name in names if kind == "institution" else (names,):
            key = EntityKey(kind, name, label)
            tally = tallies.get(key)
            if tally is None:
                tallies[key] = EntityTally(supporting, mentioning, contrasting, cited)
            else:
                tally.supporting += supporting
                tally.mentioning += mentioning
                tally.contrasting += contrasting
                tally.references += cited
    return Store(tallies, diag)


def count_statement_excess(store: Store) -> int:
    """Entities whose statement total exceeds their reference count.

    A heuristic, not a join check: it assumes each statement comes from a
    reference in the reference stream.  Data whose statements are not drawn
    from its references trips it whatever its quality; duplicate
    suppression and unresolved rows also cut the two streams differently.
    """
    return sum(
        1 for tally in store.tallies.values() if tally.statement_total > tally.references
    )


# -- serialization ---------------------------------------------------------
#
# One JSON object per line: entity rows sorted by (kind, id, field), then a
# single trailing diagnostics row.  Sorting plus compact separators makes
# equal stores serialize to identical bytes, which the determinism tests
# lean on.  A row is what ``json.dumps`` writes with those separators and
# ``ensure_ascii=False``.

_ROW_KEYS = json_keys(("kind", "id", *COUNTERS))
_FIELD_ROW_KEYS = json_keys(("kind", "id", "field", *COUNTERS))


def _row_template(keys: tuple[str, ...]) -> str:
    """A store row of ``keys``, each value a ``%s`` taking its JSON text."""
    return "{" + ",".join(key.replace("%", "%%") + "%s" for key in keys) + "}\n"


_ROW = _row_template(_ROW_KEYS)
_FIELD_ROW = _row_template(_FIELD_ROW_KEYS)


def dump_store(store: Store) -> str:
    lines = [
        _ROW % (_quote(key.kind), _quote(key.id), *tally_counts(tally))
        if key.field is None
        else _FIELD_ROW % (*map(_quote, key), *tally_counts(tally))
        for key, tally in sorted(
            store.tallies.items(),
            key=lambda item: (item[0].kind, item[0].id, item[0].field or ""),
        )
    ]
    diagnostics = store.diagnostics.as_dict()
    keys = json_keys(("kind", *diagnostics))
    lines.append("{" + json_members(keys, (DIAGNOSTICS_KIND, *diagnostics.values())) + "}\n")
    # rows carry their own "\n", so one join builds the text and nothing copies it
    return "".join(lines)


# A row in the layout ``dump_store`` writes, read as ``ingest.stream`` reads
# the input streams.  A counter of 19 or more digits goes to the per-line
# parser, so a huge one meets the JSON decoder and its message.
_STORE_LINE = line_pattern(
    _FIELD_ROW_KEYS,
    ('"(' + "|".join(map(re.escape, ENTITY_KINDS)) + ')"', LAYOUT_STRING, LAYOUT_STRING,
     *["(0|[1-9][0-9]{0,17})"] * len(COUNTERS)),
    range(2, 3),
)


def store_line(line: str) -> str:
    """The parser to give ``ingest.stream`` when ``load_store`` reads its
    lines: it keeps each line as it is.  Its ``scan`` reads the lines in
    the layout ``dump_store`` writes a block at a time, as (key, tally)
    rows."""
    return line


# each row's key holds the one kind string, as a row the JSON decoder reads does
_KINDS = {kind: kind for kind in ENTITY_KINDS}
_new = tuple.__new__  # what NamedTuple._make calls, without the length check


def _canonical_store_rows(text: str, count: int) -> list[tuple[EntityKey, EntityTally] | None]:
    return [
        (_new(EntityKey, (_KINDS[kind], entity_id, label or None)),
         EntityTally(int(supporting), int(mentioning), int(contrasting), int(references)))
        if kind else None
        for kind, entity_id, label, supporting, mentioning, contrasting, references
        in re.findall(_STORE_LINE, text)[:count]
    ]


store_line.scan = _canonical_store_rows


def load_store(source: Iterable[str], path: str = "<store>") -> Store:
    """Read a serialized store back for ranking and reporting.

    The rows must share one kind, and be all per-field or all plain; a
    store mixing either raises DataError, as does any other defect.
    Per-field rows must be of kind ``institution``, the only per-field
    store ``build_store`` makes.  A defective row raises ParseError naming
    ``path`` and the line, as ``stream`` does.  Unlike in an input or
    scores file, a line holding only JSON whitespace (space, tab, CR, LF)
    is skipped.  A store with no diagnostics row
    raises DataError naming ``path`` but no line.  In the diagnostics row a
    missing counter reads as 0, and any other key, the derived
    ``out_of_window`` and ``unresolved`` included, is ignored and not
    checked against its parts.

    ``source`` yields the lines.  ``stream(path, store_line)`` yields the
    lines of a file, but ``store_line.scan`` gives a line in the layout
    ``dump_store`` writes as its (key, tally) row, so only the checks across
    rows are left for it.
    """
    tallies: dict[EntityKey, EntityTally] = {}
    add = tallies.setdefault
    kind: str | None = None
    per_field: bool | None = None
    diagnostics: Diagnostics | None = None
    for line_no, line in enumerate(source, start=1):
        try:
            if type(line) is tuple:
                if diagnostics is not None:
                    raise ParseError("rows after the diagnostics record")
                key, tally = line
                if key.kind != kind or (key.field is not None) is not per_field:
                    kind = _store_kind(kind, key.kind)
                    per_field = _store_grouping(per_field, kind, key.field)
            else:
                if not line.strip(" \t\r\n"):
                    continue
                if diagnostics is not None:
                    raise ParseError("rows after the diagnostics record")
                row = decode_line(line)
                if not isinstance(row, dict) or "kind" not in row:
                    raise ParseError("expected an object with a 'kind' key")
                if row["kind"] == DIAGNOSTICS_KIND:
                    diagnostics = _load_diagnostics(row)
                    continue
                if kind is None or row["kind"] != kind:
                    kind = _store_kind(kind, row["kind"])
                entity_id = row.get("id")
                if type(entity_id) is not str or not entity_id:
                    raise ParseError("'id' must be a nonempty string")
                label = row.get("field")
                if label is not None and (type(label) is not str or not label):
                    raise ParseError("'field' must be a nonempty string")
                if has_lone_surrogate(entity_id):
                    raise ParseError("'id' holds a lone surrogate")
                if label is not None and has_lone_surrogate(label):
                    raise ParseError("'field' holds a lone surrogate")
                if (label is not None) is not per_field:
                    per_field = _store_grouping(per_field, kind, label)
                # JSON yields exact types, so ``type(x) is int`` excludes bools;
                # EntityTally rejects a negative counter
                supporting = row.get("supporting")
                mentioning = row.get("mentioning")
                contrasting = row.get("contrasting")
                references = row.get("references")
                if not (
                    type(supporting) is int
                    and type(mentioning) is int
                    and type(contrasting) is int
                    and type(references) is int
                ):
                    raise _counter_error(row)
                try:
                    tally = EntityTally(supporting, mentioning, contrasting, references)
                except ValueError:
                    raise _counter_error(row) from None
                key = EntityKey(kind, entity_id, label)
            if add(key, tally) is not tally:
                where = "" if key.field is None else f" in field {key.field!r}"
                raise ParseError(f"duplicate entity {kind}/{key.id}{where}")
        except ParseError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    if diagnostics is None:
        raise DataError(f"{path}: missing trailing diagnostics record")
    return Store(tallies, diagnostics)


def _store_kind(kind: str | None, row_kind: object) -> str:
    """The store's kind once a row of ``row_kind`` is read."""
    if row_kind not in ENTITY_KINDS:
        raise ParseError(f"unknown entity kind {row_kind!r}")
    if kind is None:
        return row_kind
    if row_kind != kind:
        raise ParseError(f"mixed entity kinds {kind!r} and {row_kind!r}")
    return kind


def _store_grouping(per_field: bool | None, kind: str, label: str | None) -> bool:
    """Whether the store is per-field, once a row of ``kind`` with field
    ``label`` is read."""
    if per_field is None:
        if label is not None and kind != "institution":
            raise ParseError(f"per-field rows need kind 'institution', got {kind!r}")
        return label is not None
    if (label is not None) is not per_field:
        raise ParseError("mixed per-field and plain rows")
    return per_field


def _counter_error(row: dict) -> ParseError:
    """The message for the first counter of an entity row that is not a
    nonnegative integer."""
    for name in COUNTERS:
        value = row.get(name)
        if type(value) is not int or value < 0:
            return ParseError(f"{name!r} must be a nonnegative integer, got {value!r}")
    raise AssertionError("every counter is a nonnegative integer")


def _load_diagnostics(row: dict) -> Diagnostics:
    diag = Diagnostics()
    for name in Diagnostics._fields:
        value = row.get(name, 0)
        if type(value) is not int or value < 0:
            raise ParseError(f"diagnostics {name!r} must be a nonnegative integer, got {value!r}")
        setattr(diag, name, value)
    return diag
