"""Resolution of cited publication ids to rankable entities.

A cited publication maps to at most one journal, at most one field, and any
number of institutions.  Multi-institution papers credit every institution
in full (full counting, no fractionalization), so a citation of one
publication can credit a set of entities rather than a single one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .ingest import AffiliationRecord, PublicationRecord

__all__ = ["ENTITY_KINDS", "EntityKey", "LinkTables", "build_link_tables"]

ENTITY_KINDS = ("journal", "institution", "field")


class EntityKey(NamedTuple):
    """Identity of a rankable entity.

    ``field`` is set only in a per-field institution store, where tallies
    are kept per (institution, field label) pair.  ``kind`` is one of
    ``ENTITY_KINDS``; it is checked where a store is built or loaded, not
    here.
    """

    kind: str
    id: str
    field: str | None = None


@dataclass(slots=True)
class LinkTables:
    """Publication-to-entity lookup tables plus overwrite diagnostics.

    Duplicate ids are resolved last-writer-wins, and the overwrite counters
    exist so a pipeline can report how dirty its metadata was.  Equal
    journal ids, field labels, institution ids and institution sets are
    shared between publications, so the tables cost little more than one
    entry per publication; callers must not rely on object identity.
    """

    pub_to_journal: dict[str, str]
    pub_to_field: dict[str, str]
    pub_to_institutions: dict[str, frozenset[str]]
    publication_overwrites: int = 0
    affiliation_overwrites: int = 0


def build_link_tables(
    publications: Iterable[PublicationRecord],
    affiliations: Iterable[AffiliationRecord],
) -> LinkTables:
    """Fold metadata streams into lookup tables, last record per id winning.

    A repeated publication id replaces the earlier record wholesale: if the
    later record lacks a journal or field, the earlier value is dropped, not
    inherited.  Same for repeated affiliation pub_ids.
    """
    # one object per distinct value; strings and frozensets never compare equal
    shared: dict = {}
    share = shared.setdefault
    pub_to_journal: dict[str, str] = {}
    pub_to_field: dict[str, str] = {}
    seen_pubs: set[str] = set()
    publication_overwrites = 0
    for rec in publications:
        if rec.id in seen_pubs:
            publication_overwrites += 1
            pub_to_journal.pop(rec.id, None)
            pub_to_field.pop(rec.id, None)
        else:
            seen_pubs.add(rec.id)
        if rec.journal_id is not None:
            pub_to_journal[rec.id] = share(rec.journal_id, rec.journal_id)
        if rec.field is not None:
            pub_to_field[rec.id] = share(rec.field, rec.field)

    pub_to_institutions: dict[str, frozenset[str]] = {}
    affiliation_overwrites = 0
    for rec in affiliations:
        if rec.pub_id in pub_to_institutions:
            affiliation_overwrites += 1
        ids = rec.institution_ids
        institutions = shared.get(ids)
        if institutions is None:
            # keyed by the rebuilt set, so the record's own strings are freed
            institutions = frozenset(map(share, ids, ids))
            shared[institutions] = institutions
        pub_to_institutions[rec.pub_id] = institutions

    return LinkTables(
        pub_to_journal=pub_to_journal,
        pub_to_field=pub_to_field,
        pub_to_institutions=pub_to_institutions,
        publication_overwrites=publication_overwrites,
        affiliation_overwrites=affiliation_overwrites,
    )

