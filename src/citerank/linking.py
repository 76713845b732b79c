"""Resolution of cited publication ids to rankable entities.

A cited publication maps to at most one journal, at most one field, and any
number of institutions.  Multi-institution papers credit every institution
in full (full counting, no fractionalization), so a citation of one
publication can credit a set of entities rather than a single one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ConfigError
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

    ``kind`` and ``by_field`` name the store the tables were built for, and
    only the maps that store reads are filled; the others stay empty.  With
    ``kind`` None every map is filled, for any store.
    """

    pub_to_journal: dict[str, str]
    pub_to_field: dict[str, str]
    pub_to_institutions: dict[str, frozenset[str]]
    publication_overwrites: int = 0
    affiliation_overwrites: int = 0
    kind: str | None = None
    by_field: bool = False


def build_link_tables(
    publications: Iterable[PublicationRecord],
    affiliations: Iterable[AffiliationRecord],
    kind: str | None = None,
    by_field: bool = False,
) -> LinkTables:
    """Fold metadata streams into lookup tables, last record per id winning.

    A repeated publication id replaces the earlier record wholesale: if the
    later record lacks a journal or field, the earlier value is dropped, not
    inherited.  Same for repeated affiliation pub_ids.

    Given ``kind``, only the maps ``build_store`` reads for that store are
    built: the journal map for ``"journal"``, the field map for ``"field"``,
    the institution map for ``"institution"``, plus the field map with
    ``by_field``.  Both streams are still read to the end, so a bad line is
    found and both overwrite counts stay exact.  Without ``kind`` all three
    maps are built.
    """
    if kind is not None and kind not in ENTITY_KINDS:
        raise ConfigError(f"kind must be one of {ENTITY_KINDS}, got {kind!r}")
    keep_journals = kind in (None, "journal")
    keep_fields = kind in (None, "field") or (kind == "institution" and by_field)
    keep_institutions = kind in (None, "institution")
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
        if keep_journals and rec.journal_id is not None:
            pub_to_journal[rec.id] = share(rec.journal_id, rec.journal_id)
        if keep_fields and rec.field is not None:
            pub_to_field[rec.id] = share(rec.field, rec.field)

    pub_to_institutions: dict[str, frozenset[str]] = {}
    if keep_institutions:
        seen_affiliations = pub_to_institutions
    else:
        # a set of pub ids still counts the overwrites, in place of the
        # publications' set; an institution run keeps that set to the end,
        # since freeing it here raised its peak RSS (glibc's malloc then
        # grows the institution map on its heap)
        del seen_pubs
        seen_affiliations = set()
    affiliation_overwrites = 0
    for rec in affiliations:
        if rec.pub_id in seen_affiliations:
            affiliation_overwrites += 1
        if not keep_institutions:
            seen_affiliations.add(rec.pub_id)
            continue
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
        kind=kind,
        by_field=by_field,
    )

