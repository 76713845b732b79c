import random
import tracemalloc

import pytest
from hypothesis import given, settings

from citerank.aggregate import Window, build_store
from citerank.errors import ConfigError
from citerank.ingest import (
    AffiliationRecord,
    PublicationRecord,
    StatementRecord,
    parse_affiliation,
    parse_publication,
)
from citerank.linking import EntityKey, build_link_tables
from test_aggregate import (
    random_affils,
    random_events,
    random_pubs,
    random_statements,
    random_windows,
)

# every kind and grouping build_store accepts, with the maps it reads
STORES = {
    ("journal", False): ("pub_to_journal",),
    ("field", False): ("pub_to_field",),
    ("institution", False): ("pub_to_institutions",),
    ("institution", True): ("pub_to_institutions", "pub_to_field"),
}
MAPS = ("pub_to_journal", "pub_to_field", "pub_to_institutions")


def make_tables():
    pubs = [
        PublicationRecord("W1", journal_id="J1", field="Physics"),
        PublicationRecord("W2", journal_id="J2"),
        PublicationRecord("W3", field="Maths"),
    ]
    affils = [
        AffiliationRecord("W1", frozenset({"I1", "I2"})),
        AffiliationRecord("W2", frozenset({"I1"})),
    ]
    return build_link_tables(pubs, affils)


class TestBuildLinkTables:
    def test_basic_lookups(self):
        tables = make_tables()
        assert tables.pub_to_journal == {"W1": "J1", "W2": "J2"}
        assert tables.pub_to_field == {"W1": "Physics", "W3": "Maths"}
        assert tables.pub_to_institutions == {
            "W1": frozenset({"I1", "I2"}),
            "W2": frozenset({"I1"}),
        }
        assert tables.publication_overwrites == 0
        assert tables.affiliation_overwrites == 0

    def test_last_writer_wins(self):
        tables = build_link_tables(
            [
                PublicationRecord("W1", journal_id="J1", field="Physics"),
                PublicationRecord("W1", journal_id="J9", field="Chemistry"),
            ],
            [],
        )
        assert tables.pub_to_journal["W1"] == "J9"
        assert tables.pub_to_field["W1"] == "Chemistry"
        assert tables.publication_overwrites == 1

    def test_overwrite_replaces_wholesale(self):
        # the later record has no journal, so the earlier journal must not leak
        tables = build_link_tables(
            [
                PublicationRecord("W1", journal_id="J1", field="Physics"),
                PublicationRecord("W1", field="Chemistry"),
            ],
            [],
        )
        assert "W1" not in tables.pub_to_journal
        assert tables.pub_to_field["W1"] == "Chemistry"

    def test_affiliation_overwrite(self):
        tables = build_link_tables(
            [],
            [
                AffiliationRecord("W1", frozenset({"I1"})),
                AffiliationRecord("W1", frozenset({"I2", "I3"})),
            ],
        )
        assert tables.pub_to_institutions["W1"] == frozenset({"I2", "I3"})
        assert tables.affiliation_overwrites == 1

    def test_triple_duplicate_counts_two_overwrites(self):
        tables = build_link_tables(
            [PublicationRecord("W1", journal_id=j) for j in ("J1", "J2", "J3")], []
        )
        assert tables.publication_overwrites == 2
        assert tables.pub_to_journal["W1"] == "J3"


class TestSharedValues:
    """Equal values repeat across publications; the tables keep one object
    per distinct value, so they cost little more than one entry each."""

    def test_equal_values_are_one_object(self):
        # each parsed line holds its own string and set objects
        pubs = [
            parse_publication('{"id": "W%d", "journal_id": "J1", "field": "Physics"}' % n)
            for n in range(3)
        ]
        affils = [
            parse_affiliation('{"pub_id": "W%d", "institution_ids": %s}' % (n, ids))
            for n, ids in enumerate(['["I1", "I2"]', '["I2", "I1"]', '["I2", "I3"]'])
        ]
        assert pubs[0].journal_id is not pubs[1].journal_id
        assert affils[0].institution_ids is not affils[1].institution_ids
        tables = build_link_tables(pubs, affils)
        journals = {id(tables.pub_to_journal[f"W{n}"]) for n in range(3)}
        labels = {id(tables.pub_to_field[f"W{n}"]) for n in range(3)}
        sets = tables.pub_to_institutions
        assert len(journals) == 1 and len(labels) == 1
        assert sets["W0"] is sets["W1"]
        assert sets["W0"] == frozenset({"I1", "I2"})
        i2 = [next(i for i in sets[pub] if i == "I2") for pub in ("W0", "W2")]
        assert i2[0] is i2[1]

    @staticmethod
    def table_bytes_per_publication(kind):
        # 20,000 publications in 500 journals and 40 fields, each with 1-2 of
        # 2,000 institutions; records are built as the fold reads them, as a
        # stream would, so only what the tables keep stays traced
        rng = random.Random(5)
        count = 20_000

        def publications():
            for n in range(count):
                yield PublicationRecord(f"W{n}", f"J{rng.randrange(500)}", f"F{rng.randrange(40)}")

        def affiliations():
            for n in range(count):
                ids = {f"I{rng.randrange(2_000)}" for _ in range(rng.randint(1, 2))}
                yield AffiliationRecord(f"W{n}", frozenset(ids))

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = build_link_tables(publications(), affiliations(), kind)
            per_pub = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        return tables, per_pub

    def test_table_bytes_per_publication(self):
        tables, per_pub = self.table_bytes_per_publication(None)
        assert len(tables.pub_to_institutions) == 20_000
        # measured 306 B on CPython 3.11, and 572 B with a copy of every value
        # per entry; the bound leaves 20% for other interpreter versions
        assert per_pub < 370, per_pub

    def test_journal_table_bytes_per_publication(self):
        tables, per_pub = self.table_bytes_per_publication("journal")
        assert len(tables.pub_to_journal) == 20_000
        assert not tables.pub_to_field and not tables.pub_to_institutions
        # measured 77 B on CPython 3.11, against 306 B with all three maps;
        # the bound leaves 20% for other interpreter versions
        assert per_pub < 92, per_pub


class TestTablesForOneKind:
    """Tables built for one kind fill only the maps its store reads."""

    def test_two_argument_call_fills_every_map(self):
        # callers that name no kind, such as the benchmark's set-up, get
        # every map, and one set of tables builds every store
        tables = make_tables()
        assert tables.kind is None
        assert all(getattr(tables, name) for name in MAPS)
        for kind, by_field in STORES:
            store = build_store([], [], tables, Window(2024, 2024), kind, by_field)
            assert store.kind == kind

    @settings(max_examples=300, deadline=None)
    @given(random_pubs, random_affils, random_statements, random_events, random_windows)
    def test_matches_full_build(self, pubs, affils, statements, events, window):
        full = build_link_tables(pubs, affils)
        full_stores = {
            (kind, by_field): build_store(statements, events, full, window, kind, by_field)
            for kind, by_field in STORES
        }
        for (kind, by_field), reads in STORES.items():
            tables = build_link_tables(pubs, affils, kind, by_field)
            for name in MAPS:
                expected = getattr(full, name) if name in reads else {}
                assert getattr(tables, name) == expected, (kind, by_field, name)
            assert tables.publication_overwrites == full.publication_overwrites
            assert tables.affiliation_overwrites == full.affiliation_overwrites
            store = build_store(statements, events, tables, window, kind, by_field)
            assert store == full_stores[kind, by_field]

    @pytest.mark.parametrize("built", list(STORES))
    def test_refused_for_another_store(self, built):
        # their other maps are empty, so a silent build would count nothing
        tables = build_link_tables(
            [PublicationRecord("W1", "J1", "F1")],
            [AffiliationRecord("W1", frozenset({"I1"}))],
            *built,
        )
        statement = StatementRecord("C1", "W1", 2024, "supporting")
        for kind, by_field in STORES:
            if (kind, by_field) == built:
                store = build_store([statement], [], tables, Window(2024, 2024), kind, by_field)
                assert store.diagnostics.statements_counted == 1
                continue
            with pytest.raises(ConfigError, match="link tables built for kind"):
                build_store([statement], [], tables, Window(2024, 2024), kind, by_field)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            build_link_tables([], [], "author")


class TestResolve:
    """How a cited publication resolves to the keys build_store credits."""

    @staticmethod
    def credited(cited, tables):
        statement = StatementRecord("C1", cited, 2024, "supporting")
        store = build_store([statement], [], tables, Window(2024, 2024), "institution")
        return set(store.tallies), store.diagnostics.statements_unresolved

    def test_institution_full_counting(self):
        # every affiliated institution gets full credit, no fractionalization
        tables = make_tables()
        assert self.credited("W1", tables) == (
            {EntityKey("institution", "I1"), EntityKey("institution", "I2")},
            0,
        )
        assert self.credited("W3", tables) == (set(), 1)

    def test_empty_institution_set_is_unresolvable(self):
        tables = build_link_tables([], [AffiliationRecord("W1", frozenset())])
        assert self.credited("W1", tables) == (set(), 1)


class TestEntityKey:
    def test_hashable_and_frozen(self):
        key = EntityKey("journal", "J1")
        assert key in {key}
        with pytest.raises(AttributeError):
            key.id = "J2"

    def test_field_label_distinguishes_keys(self):
        plain = EntityKey("institution", "I1")
        labeled = EntityKey("institution", "I1", "Physics")
        assert plain != labeled
