"""Windowed accumulation of statements and reference events into tallies.

The window filters on the *citing* side only: a 2024 window keeps citations
made by 2024 works, whatever the age of the cited work.  Statements count
once per occurrence; reference events count once per distinct
(citing_id, cited_id) pair inside the window, so reloading the same
reference file twice does not double anyone's volume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator

from .errors import ConfigError, DataError
from .ingest import ReferenceEvent, StatementRecord
from .linking import ENTITY_KINDS, EntityKey, LinkTables, resolve
from .metrics import EntityTally

__all__ = [
    "Window",
    "Diagnostics",
    "Store",
    "build_store",
    "count_statement_excess",
    "store_records",
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

    def contains(self, year: int) -> bool:
        return self.from_year <= year <= self.to_year


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
    ``load_store`` reads one back from its serialized form.  Per-field
    stores are recognised by their keys, which carry a field label.
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

    With ``by_field`` every key also carries the cited publication's field
    label, and a cited publication without one is unresolved.  The result
    does not depend on the order of either stream.
    """
    if kind not in ENTITY_KINDS:
        raise ConfigError(f"kind must be one of {ENTITY_KINDS}, got {kind!r}")
    tallies, credited = _credited_tallies(tables, kind, by_field)
    lo, hi = window.from_year, window.to_year
    diag = Diagnostics()

    for rec in statements:
        diag.statements_seen += 1
        if not lo <= rec.citing_year <= hi:
            diag.statements_out_of_window += 1
            continue
        group = credited.get(rec.cited_id)
        if group is None:
            diag.statements_unresolved += 1
            continue
        diag.statements_counted += 1
        stance = rec.stance
        if stance == "supporting":
            for tally in group:
                tally.supporting += 1
        elif stance == "mentioning":
            for tally in group:
                tally.mentioning += 1
        elif stance == "contrasting":
            for tally in group:
                tally.contrasting += 1
        else:
            raise ValueError(f"unknown stance {stance!r}")

    # a pair counts once however often it recurs; pairs outside the window
    # or unresolvable never enter the set
    seen_pairs: set[tuple[str, str]] = set()
    for event in references:
        diag.events_seen += 1
        if not lo <= event.citing_year <= hi:
            diag.events_out_of_window += 1
            continue
        group = credited.get(event.cited_id)
        if group is None:
            diag.events_unresolved += 1
            continue
        pair = (event.citing_id, event.cited_id)
        if pair in seen_pairs:
            diag.events_duplicate += 1
            continue
        seen_pairs.add(pair)
        diag.events_counted += 1
        for tally in group:
            tally.references += 1

    # every linked entity got a tally up front; keep those a record reached
    reached = {
        key: tally
        for key, tally in tallies.items()
        if tally.supporting or tally.mentioning or tally.contrasting or tally.references
    }
    return Store(kind, reached, diag)


def _credited_tallies(
    tables: LinkTables, kind: str, by_field: bool
) -> tuple[dict[EntityKey, EntityTally], dict[str, tuple[EntityTally, ...]]]:
    """A zero tally per linked entity, and a map from each resolvable
    publication id to the tallies a citation of it credits.

    Publications credited to the same set of entities share one tuple, so
    the map costs one reference per publication.
    """
    linked = {
        "journal": tables.pub_to_journal,
        "field": tables.pub_to_field,
        "institution": tables.pub_to_institutions,
    }[kind]
    labels = tables.pub_to_field
    tallies: dict[EntityKey, EntityTally] = {}
    shared: dict[frozenset[EntityKey], tuple[EntityTally, ...]] = {}
    credited: dict[str, tuple[EntityTally, ...]] = {}
    for pub_id in linked:
        keys = resolve(pub_id, kind, tables)
        if by_field and keys:
            label = labels.get(pub_id)
            if label is None:
                continue
            keys = {EntityKey(key.kind, key.id, label) for key in keys}
        if not keys:
            continue
        key_set = frozenset(keys)
        group = shared.get(key_set)
        if group is None:
            for key in key_set:
                if key not in tallies:
                    tallies[key] = EntityTally()
            group = shared[key_set] = tuple(tallies[key] for key in key_set)
        credited[pub_id] = group
    return tallies, credited


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
# lean on.


def store_records(store: Store) -> Iterator[dict]:
    def sort_key(item: tuple[EntityKey, EntityTally]):
        key, _ = item
        return (key.kind, key.id, key.field or "")

    for key, tally in sorted(store.tallies.items(), key=sort_key):
        row: dict = {"kind": key.kind, "id": key.id}
        if key.field is not None:
            row["field"] = key.field
        row.update(
            supporting=tally.supporting,
            mentioning=tally.mentioning,
            contrasting=tally.contrasting,
            references=tally.references,
        )
        yield row
    yield {"kind": DIAGNOSTICS_KIND, **store.diagnostics.as_dict()}


def dump_store(store: Store) -> str:
    lines = [
        json.dumps(row, separators=(",", ":"), ensure_ascii=False)
        for row in store_records(store)
    ]
    return "\n".join(lines) + "\n"


def load_store(source: Iterable[str], path: str = "<store>") -> Store:
    """Read a serialized store back for ranking and reporting.

    The kind is recovered from the rows.  Defects raise DataError.
    """
    store = Store(kind=None)
    saw_diagnostics = False
    for line_no, line in enumerate(source, start=1):
        if not line.strip():
            continue
        if saw_diagnostics:
            raise DataError(
                f"{path}:{line_no}: rows after the diagnostics record"
            )
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal past the digit limit
            raise DataError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict) or "kind" not in row:
            raise DataError(f"{path}:{line_no}: expected an object with a 'kind' key")
        if row["kind"] == DIAGNOSTICS_KIND:
            _load_diagnostics(row, store.diagnostics, path, line_no)
            saw_diagnostics = True
            continue
        _load_entity_row(row, store, path, line_no)
    if not saw_diagnostics:
        raise DataError(f"{path}: missing trailing diagnostics record")
    return store


def _load_entity_row(row: dict, store: Store, path: str, line_no: int) -> None:
    kind = row.get("kind")
    if kind not in ENTITY_KINDS:
        raise DataError(f"{path}:{line_no}: unknown entity kind {kind!r}")
    if store.kind is None:
        store.kind = kind
    elif kind != store.kind:
        raise DataError(
            f"{path}:{line_no}: mixed entity kinds {store.kind!r} and {kind!r}"
        )
    entity_id = row.get("id")
    if not isinstance(entity_id, str) or not entity_id:
        raise DataError(f"{path}:{line_no}: 'id' must be a nonempty string")
    label = row.get("field")
    if label is not None and (not isinstance(label, str) or not label):
        raise DataError(f"{path}:{line_no}: 'field' must be a nonempty string")
    counters = {}
    for name in ("supporting", "mentioning", "contrasting", "references"):
        value = row.get(name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DataError(
                f"{path}:{line_no}: {name!r} must be a nonnegative integer, got {value!r}"
            )
        counters[name] = value
    key = EntityKey(kind, entity_id, label)
    if key in store.tallies:
        raise DataError(f"{path}:{line_no}: duplicate entity {kind}/{entity_id}")
    store.tallies[key] = EntityTally(**counters)


def _load_diagnostics(row: dict, diag: Diagnostics, path: str, line_no: int) -> None:
    for spec in fields(Diagnostics):
        value = row.get(spec.name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DataError(
                f"{path}:{line_no}: diagnostics {spec.name!r} must be a "
                f"nonnegative integer, got {value!r}"
            )
        setattr(diag, spec.name, value)
