import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from citerank.aggregate import (
    Store,
    Window,
    build_store,
    count_statement_excess,
    dump_store,
    load_store,
)
from citerank.errors import ConfigError, DataError
from citerank.ingest import (
    STANCE_CLASSES,
    AffiliationRecord,
    PublicationRecord,
    ReferenceEvent,
    StatementRecord,
)
from citerank.linking import ENTITY_KINDS, EntityKey, build_link_tables
from citerank.metrics import EntityTally

WINDOW = Window(2024, 2024)

citing_ids = st.sampled_from(["C1", "C2", "C3"])
cited_ids = st.sampled_from(["W1", "W2", "W3", "W404"])
years = st.sampled_from([2023, 2024])
stances = st.sampled_from(STANCE_CLASSES)


def make_tables():
    pubs = [
        PublicationRecord("W1", journal_id="J1", field="Physics"),
        PublicationRecord("W2", journal_id="J1", field="Maths"),
        PublicationRecord("W3", journal_id="J2"),
    ]
    affils = [
        AffiliationRecord("W1", frozenset({"I1", "I2"})),
        AffiliationRecord("W2", frozenset({"I1"})),
    ]
    return build_link_tables(pubs, affils)


def statement(citing="C1", cited="W1", year=2024, stance="supporting"):
    return StatementRecord(citing, cited, year, stance)


def event(citing="C1", cited="W1", year=2024):
    return ReferenceEvent(citing, cited, year)


class TestWindow:
    def test_contains_is_inclusive(self):
        window = Window(2020, 2024)
        assert window.contains(2020)
        assert window.contains(2024)
        assert not window.contains(2019)
        assert not window.contains(2025)

    def test_single_year(self):
        assert Window(2024, 2024).contains(2024)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            Window(2025, 2024)


def fold(statements=(), events=(), kind="journal", window=WINDOW, by_field=False):
    return build_store(statements, events, make_tables(), window, kind, by_field=by_field)


class TestStatements:
    def test_counts_by_stance(self):
        store = fold(
            [
                statement(stance="supporting"),
                statement(stance="mentioning"),
                statement(stance="mentioning"),
                statement(stance="contrasting"),
            ]
        )
        tally = store.tallies[EntityKey("journal", "J1")]
        assert (tally.supporting, tally.mentioning, tally.contrasting) == (1, 2, 1)

    def test_each_occurrence_counts(self):
        # statements are not deduplicated; only reference events are
        store = fold([statement()] * 3)
        assert store.tallies[EntityKey("journal", "J1")].supporting == 3

    def test_window_filters_citing_year_only(self):
        store = fold([statement(year=2023), statement(year=2025)])
        assert store.tallies == {}
        assert store.diagnostics.statements_out_of_window == 2

    def test_unresolved(self):
        store = fold([statement(cited="W404")])
        assert store.diagnostics.statements_unresolved == 1
        assert store.tallies == {}

    def test_full_counting_across_institutions(self):
        store = fold([statement(cited="W1")], kind="institution")
        assert store.tallies[EntityKey("institution", "I1")].supporting == 1
        assert store.tallies[EntityKey("institution", "I2")].supporting == 1
        # one statement, counted once, credited twice
        assert store.diagnostics.statements_counted == 1

    def test_statement_partition(self):
        store = fold([statement(), statement(year=1999), statement(cited="W404")])
        diag = store.diagnostics
        assert diag.statements_seen == 3
        assert (
            diag.statements_counted
            + diag.statements_out_of_window
            + diag.statements_unresolved
            == diag.statements_seen
        )


class TestReferences:
    def test_duplicate_pair_suppressed(self):
        store = fold(events=[event(), event()])
        assert store.tallies[EntityKey("journal", "J1")].references == 1
        assert store.diagnostics.events_duplicate == 1

    def test_pair_dedup_spans_years_inside_window(self):
        store = fold(events=[event(year=2023), event(year=2024)], window=Window(2023, 2024))
        assert store.tallies[EntityKey("journal", "J1")].references == 1

    def test_out_of_window_event_does_not_poison_dedup(self):
        store = fold(events=[event(year=2023), event(year=2024)])
        assert store.tallies[EntityKey("journal", "J1")].references == 1
        assert store.diagnostics.events_out_of_window == 1
        assert store.diagnostics.events_duplicate == 0

    def test_distinct_pairs_count(self):
        store = fold(
            events=[event(citing="C1"), event(citing="C2"), event(citing="C1", cited="W2")]
        )
        assert store.tallies[EntityKey("journal", "J1")].references == 3

    def test_event_partition(self):
        store = fold(events=[event(), event(), event(year=1999), event(cited="W404")])
        diag = store.diagnostics
        assert diag.events_seen == 4
        assert (
            diag.events_counted
            + diag.events_out_of_window
            + diag.events_unresolved
            + diag.events_duplicate
            == diag.events_seen
        )


class TestUnknownStance:
    def test_hand_built_record_raises(self):
        with pytest.raises(ValueError, match="unknown stance 'refuting'"):
            fold([statement(stance="refuting")])

    def test_only_a_counted_record_is_checked(self):
        store = fold([statement(year=2023, stance="refuting"), statement(cited="W404", stance="")])
        assert store.diagnostics.statements_out_of_window == 1
        assert store.diagnostics.statements_unresolved == 1


def naive_store(pubs, affils, statements, events, window, kind, by_field):
    """Expected tallies and diagnostics by a plain walk over the records."""
    journal_of, field_of, insts_of = {}, {}, {}
    for pub in pubs:  # a repeated id replaces the earlier record wholesale
        for table in (journal_of, field_of):
            table.pop(pub.id, None)
        if pub.journal_id is not None:
            journal_of[pub.id] = pub.journal_id
        if pub.field is not None:
            field_of[pub.id] = pub.field
    for aff in affils:
        insts_of[aff.pub_id] = aff.institution_ids

    def credited(cited_id):
        if kind == "journal":
            names = [journal_of[cited_id]] if cited_id in journal_of else []
        elif kind == "field":
            names = [field_of[cited_id]] if cited_id in field_of else []
        else:
            names = sorted(insts_of.get(cited_id, ()))
        if not by_field:
            return [(name, None) for name in names]
        if cited_id not in field_of:
            return []
        return [(name, field_of[cited_id]) for name in names]

    counts = {}
    diag = dict.fromkeys(
        ["statements_" + b for b in ("seen", "counted", "out_of_window", "unresolved")]
        + ["events_" + b for b in ("seen", "counted", "out_of_window", "unresolved", "duplicate")],
        0,
    )
    slot = {"supporting": 0, "mentioning": 1, "contrasting": 2}
    for rec in statements:
        diag["statements_seen"] += 1
        if not window.from_year <= rec.citing_year <= window.to_year:
            diag["statements_out_of_window"] += 1
        elif not credited(rec.cited_id):
            diag["statements_unresolved"] += 1
        else:
            diag["statements_counted"] += 1
            for name in credited(rec.cited_id):
                counts.setdefault(name, [0, 0, 0, 0])[slot[rec.stance]] += 1
    pairs = []
    for ev in events:
        diag["events_seen"] += 1
        if not window.from_year <= ev.citing_year <= window.to_year:
            diag["events_out_of_window"] += 1
        elif not credited(ev.cited_id):
            diag["events_unresolved"] += 1
        elif (ev.citing_id, ev.cited_id) in pairs:
            diag["events_duplicate"] += 1
        else:
            pairs.append((ev.citing_id, ev.cited_id))
            diag["events_counted"] += 1
            for name in credited(ev.cited_id):
                counts.setdefault(name, [0, 0, 0, 0])[3] += 1
    return {name: tuple(c) for name, c in counts.items()}, diag


pub_ids = st.sampled_from(["W0", "W1", "W2", "W3", "W4"])
# few sets over few ids, so publications often share an institution set
institution_sets = st.sampled_from(
    [set(), {"I1"}, {"I1", "I2"}, {"I2", "I3", "I4"}, {"I5"}]
).map(frozenset)
random_pubs = st.lists(
    st.builds(
        PublicationRecord,
        pub_ids,
        journal_id=st.none() | st.sampled_from(["J1", "J2", "J3"]),
        field=st.none() | st.sampled_from(["F1", "F2"]),
    ),
    max_size=7,
)
random_affils = st.lists(st.builds(AffiliationRecord, pub_ids, institution_sets), max_size=6)
# W5 is never linked; windows are drawn from the same years, so most leave
# some records outside
random_years = st.integers(2021, 2026)
random_cited = st.sampled_from(["W0", "W1", "W2", "W3", "W4", "W5"])
random_statements = st.lists(
    st.builds(StatementRecord, citing_ids, random_cited, random_years, stances), max_size=25
)
random_events = st.lists(
    st.builds(ReferenceEvent, citing_ids, random_cited, random_years), max_size=25
)
random_windows = st.tuples(random_years, random_years).map(lambda ys: Window(min(ys), max(ys)))


class TestMatchesNaiveWalk:
    @settings(max_examples=300, deadline=None)
    @given(
        random_pubs,
        random_affils,
        random_statements,
        random_events,
        random_windows,
        st.sampled_from(ENTITY_KINDS),
        st.booleans(),
    )
    def test_tallies_and_diagnostics(
        self, pubs, affils, statements, events, window, kind, by_field
    ):
        tables = build_link_tables(pubs, affils)
        store = build_store(statements, events, tables, window, kind, by_field=by_field)
        got = {
            (key.id, key.field): (t.supporting, t.mentioning, t.contrasting, t.references)
            for key, t in store.tallies.items()
        }
        assert all(key.kind == kind for key in store.tallies)
        expected, diag = naive_store(pubs, affils, statements, events, window, kind, by_field)
        assert got == expected
        assert {name: getattr(store.diagnostics, name) for name in diag} == diag


class TestPerFieldGrouping:
    def test_keys_carry_field_label(self):
        store = fold([statement(cited="W1"), statement(cited="W2")], kind="institution", by_field=True)
        assert EntityKey("institution", "I1", "Physics") in store.tallies
        assert EntityKey("institution", "I1", "Maths") in store.tallies
        assert EntityKey("institution", "I2", "Physics") in store.tallies

    def test_fieldless_publication_is_unresolved(self):
        store = fold([statement(cited="W3")], by_field=True)  # W3 has no field
        assert store.tallies == {}
        assert store.diagnostics.statements_unresolved == 1


class TestSerialization:
    def build(self):
        return fold(
            [statement(cited="W2"), statement(cited="W3", stance="contrasting")],
            [event(), event(cited="W3")],
        )

    def test_round_trip_is_bit_exact(self):
        text = dump_store(self.build())
        reloaded = load_store(io.StringIO(text))
        assert dump_store(reloaded) == text

    def test_rows_sorted_with_trailing_diagnostics(self):
        lines = dump_store(self.build()).splitlines()
        assert '"id":"J1"' in lines[0]
        assert '"id":"J2"' in lines[1]
        assert '"kind":"diagnostics"' in lines[2]
        assert len(lines) == 3

    @settings(deadline=None)
    @given(
        st.lists(st.builds(statement, citing=citing_ids, cited=cited_ids, year=years, stance=stances)),
        st.lists(st.builds(event, citing=citing_ids, cited=cited_ids, year=years)),
        st.sampled_from(ENTITY_KINDS),
        st.booleans(),
    )
    def test_load_inverts_dump(self, statements, events, kind, by_field):
        store = fold(statements, events, kind, by_field=by_field)
        assume(store.tallies)  # an empty store's file does not say its kind
        assert load_store(io.StringIO(dump_store(store))) == store

    def test_by_field_round_trip(self):
        store = fold([statement()], kind="institution", by_field=True)
        text = dump_store(store)
        reloaded = load_store(io.StringIO(text))
        assert all(key.field == "Physics" for key in reloaded.tallies)
        assert dump_store(reloaded) == text

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no diagnostics record
            '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n',
            "not json\n",
            '{"kind":"city","id":"X","supporting":0,"mentioning":0,"contrasting":0,"references":0}\n',
            '{"kind":"journal","id":"","supporting":0,"mentioning":0,"contrasting":0,"references":0}\n',
            '{"kind":"journal","id":"J1","supporting":-1,"mentioning":0,"contrasting":0,"references":0}\n',
            '{"kind":"journal","id":"J1","supporting":true,"mentioning":0,"contrasting":0,"references":0}\n',
        ],
    )
    def test_defective_files_rejected(self, text):
        with pytest.raises(DataError):
            load_store(io.StringIO(text))

    def test_duplicate_entity_rejected(self):
        row = '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n'
        diag = '{"kind":"diagnostics"}\n'
        with pytest.raises(DataError):
            load_store(io.StringIO(row + row + diag))

    def test_mixed_kinds_rejected(self):
        rows = (
            '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n'
            '{"kind":"field","id":"F1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n'
            '{"kind":"diagnostics"}\n'
        )
        with pytest.raises(DataError):
            load_store(io.StringIO(rows))

    def test_rows_after_diagnostics_rejected(self):
        rows = (
            '{"kind":"diagnostics"}\n'
            '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n'
        )
        with pytest.raises(DataError):
            load_store(io.StringIO(rows))


class TestConsistency:
    def test_counts_entities_with_statement_excess(self):
        store = Store(
            "journal",
            {
                EntityKey("journal", "J1"): EntityTally(5, 5, 5, 3),
                EntityKey("journal", "J2"): EntityTally(1, 0, 0, 10),
            },
        )
        assert count_statement_excess(store) == 1
