"""Windowed accumulation of statements and reference events into tallies.

The window filters on the *citing* side only: a 2024 window keeps citations
made by 2024 works, whatever the age of the cited work.  Statements count
once per occurrence; reference events count once per distinct
(citing_id, cited_id) pair inside the window, so reloading the same
reference file twice does not double anyone's volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from .errors import ConfigError, DataError, ParseError
from .ingest import ReferenceEvent, StatementRecord, _decode_line, _has_lone_surrogate
from .ingest import _json_keys, _json_members
from .linking import ENTITY_KINDS, EntityKey, LinkTables
from .metrics import EntityTally

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


@dataclass(frozen=True, slots=True)
class Window:
    """Inclusive range of citing-publication years."""

    from_year: int
    to_year: int

    def __post_init__(self) -> None:
        if self.from_year > self.to_year:
            raise ConfigError(
                f"window is empty: from_year {self.from_year} > to_year {self.to_year}"
            )


@dataclass(slots=True)
class Diagnostics:
    """Per-stream accounting of what happened to every input record.

    Every record lands in exactly one bucket: for statements,
    seen = counted + out_of_window + unresolved; for events the same plus
    duplicate.  Keeping the partition exact is what makes "how much data
    did we lose" answerable without rerunning anything.
    """

    statements_seen: int = 0
    statements_counted: int = 0
    statements_out_of_window: int = 0
    statements_unresolved: int = 0
    events_seen: int = 0
    events_counted: int = 0
    events_out_of_window: int = 0
    events_unresolved: int = 0
    events_duplicate: int = 0

    def as_dict(self) -> dict:
        out = {spec.name: getattr(self, spec.name) for spec in fields(Diagnostics)}
        out["out_of_window"] = self.statements_out_of_window + self.events_out_of_window
        out["unresolved"] = self.statements_unresolved + self.events_unresolved
        return out


@dataclass(slots=True)
class Store:
    """Per-entity tallies for one entity kind, plus the diagnostics of the
    fold that produced them.

    A plain value: ``build_store`` folds input streams into one and
    ``load_store`` reads one back from its serialized form.  A per-field
    institution store is recognised by its keys, which carry a field label.
    ``kind`` is None only for a loaded store with no entity rows.
    """

    kind: str | None
    tallies: dict[EntityKey, EntityTally] = field(default_factory=dict)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


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
    # group -> [supporting, mentioning, contrasting, references]; the link
    # tables share equal values, so a group's key costs no new strings
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
        stance = rec.stance
        if stance == "supporting":
            counts[0] += 1
        elif stance == "mentioning":
            counts[1] += 1
        elif stance == "contrasting":
            counts[2] += 1
        else:
            raise ValueError(f"unknown stance {stance!r}")

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
        counts[3] += 1

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
    return Store(kind, tallies, diag)


def count_statement_excess(store: Store) -> int:
    """Entities whose statement total exceeds their reference count.

    A handful is normal (duplicate suppression and unresolved rows cut the
    two streams differently); a large count signals data trouble.
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

_COUNTERS = ("supporting", "mentioning", "contrasting", "references")
_ROW_KEYS = _json_keys(("kind", "id", *_COUNTERS))
_FIELD_ROW_KEYS = _json_keys(("kind", "id", "field", *_COUNTERS))


def dump_store(store: Store) -> str:
    lines = []
    for key, tally in sorted(
        store.tallies.items(), key=lambda item: (item[0].kind, item[0].id, item[0].field or "")
    ):
        counts = (tally.supporting, tally.mentioning, tally.contrasting, tally.references)
        if key.field is None:
            lines.append("{" + _json_members(_ROW_KEYS, (key.kind, key.id, *counts)) + "}\n")
        else:
            lines.append("{" + _json_members(_FIELD_ROW_KEYS, (*key, *counts)) + "}\n")
    diagnostics = store.diagnostics.as_dict()
    keys = _json_keys(("kind", *diagnostics))
    lines.append("{" + _json_members(keys, (DIAGNOSTICS_KIND, *diagnostics.values())) + "}\n")
    # rows carry their own "\n", so one join builds the text and nothing copies it
    return "".join(lines)


def load_store(source: Iterable[str], path: str = "<store>") -> Store:
    """Read a serialized store back for ranking and reporting.

    The kind, and whether the store is per-field, are recovered from the
    rows; a store mixing either raises DataError, as does any other defect.
    A defective row raises ParseError naming ``path`` and the line, as
    ``stream`` does.  Unlike in an input or scores file, a blank or
    whitespace-only line is skipped.  A store with no diagnostics row
    raises DataError naming ``path`` but no line.
    """
    tallies: dict[EntityKey, EntityTally] = {}
    kind: str | None = None
    per_field: bool | None = None
    diagnostics: Diagnostics | None = None
    for line_no, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            if diagnostics is not None:
                raise ParseError("rows after the diagnostics record")
            row = _decode_line(line)
            if not isinstance(row, dict) or "kind" not in row:
                raise ParseError("expected an object with a 'kind' key")
            row_kind = row["kind"]
            if row_kind == DIAGNOSTICS_KIND:
                diagnostics = _load_diagnostics(row)
                continue
            if row_kind not in ENTITY_KINDS:
                raise ParseError(f"unknown entity kind {row_kind!r}")
            if kind is None:
                kind = row_kind
            elif row_kind != kind:
                raise ParseError(f"mixed entity kinds {kind!r} and {row_kind!r}")
            entity_id = row.get("id")
            if type(entity_id) is not str or not entity_id:
                raise ParseError("'id' must be a nonempty string")
            label = row.get("field")
            if label is not None and (type(label) is not str or not label):
                raise ParseError("'field' must be a nonempty string")
            if _has_lone_surrogate(entity_id):
                raise ParseError("'id' holds a lone surrogate")
            if label is not None and _has_lone_surrogate(label):
                raise ParseError("'field' holds a lone surrogate")
            if per_field is None:
                per_field = label is not None
            elif (label is not None) is not per_field:
                raise ParseError("mixed per-field and plain rows")
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
            if tallies.setdefault(EntityKey(kind, entity_id, label), tally) is not tally:
                where = "" if label is None else f" in field {label!r}"
                raise ParseError(f"duplicate entity {kind}/{entity_id}{where}")
        except ParseError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    if diagnostics is None:
        raise DataError(f"{path}: missing trailing diagnostics record")
    return Store(kind, tallies, diagnostics)


def _counter_error(row: dict) -> ParseError:
    """The message for the first counter of an entity row that is not a
    nonnegative integer."""
    for name in _COUNTERS:
        value = row.get(name)
        if type(value) is not int or value < 0:
            return ParseError(f"{name!r} must be a nonnegative integer, got {value!r}")
    raise AssertionError("every counter is a nonnegative integer")


def _load_diagnostics(row: dict) -> Diagnostics:
    diag = Diagnostics()
    for spec in fields(Diagnostics):
        value = row.get(spec.name, 0)
        if type(value) is not int or value < 0:
            raise ParseError(
                f"diagnostics {spec.name!r} must be a nonnegative integer, got {value!r}"
            )
        setattr(diag, spec.name, value)
    return diag
