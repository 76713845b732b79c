import io
import itertools
import json
import random
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from citerank.aggregate import (
    Diagnostics,
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
        AffiliationRecord("W3", frozenset()),
    ]
    return build_link_tables(pubs, affils)


def statement(citing="C1", cited="W1", year=2024, stance="supporting"):
    return StatementRecord(citing, cited, year, stance)


def event(citing="C1", cited="W1", year=2024):
    return ReferenceEvent(citing, cited, year)


def fold(statements=(), events=(), kind="journal", window=WINDOW, by_field=False):
    return build_store(statements, events, make_tables(), window, kind, by_field=by_field)


class TestWindow:
    def test_bounds_are_inclusive(self):
        citing_years = (2019, 2020, 2024, 2025)
        store = fold(
            [statement(year=y) for y in citing_years],
            [event(citing=f"C{y}", year=y) for y in citing_years],
            window=Window(2020, 2024),
        )
        diag = store.diagnostics
        assert (diag.statements_counted, diag.statements_out_of_window) == (2, 2)
        assert (diag.events_counted, diag.events_out_of_window) == (2, 2)
        assert store.tallies[EntityKey("journal", "J1")].references == 2

    def test_single_year(self):
        store = fold([statement(year=2024)], [event(year=2024)], window=Window(2024, 2024))
        assert store.diagnostics.statements_counted == store.diagnostics.events_counted == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            Window(2025, 2024)


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

    @pytest.mark.parametrize("kind", ["journal", "field"])
    def test_credited_entity(self, kind):
        store = fold([statement(cited="W1")], kind=kind)
        name = {"journal": "J1", "field": "Physics"}[kind]
        assert list(store.tallies) == [EntityKey(kind, name)]

    def test_unresolved(self):
        # W404 is linked to nothing; W3 has a journal but no field and an
        # empty institution set
        for kind, cited in (
            ("journal", "W404"),
            ("field", "W3"),
            ("institution", "W3"),
            ("institution", "W404"),
        ):
            store = fold([statement(cited=cited)], kind=kind)
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

    def test_pair_key_keeps_split_apart(self):
        # "a1" + "2" and "a" + "12" read alike once joined; they are two pairs
        tables = build_link_tables(
            [PublicationRecord("2", journal_id="J1"), PublicationRecord("12", journal_id="J2")], []
        )
        store = build_store([], [event("a1", "2"), event("a", "12")], tables, WINDOW, "journal")
        assert store.diagnostics.events_counted == 2
        assert store.diagnostics.events_duplicate == 0
        assert store.tallies[EntityKey("journal", "J1")].references == 1
        assert store.tallies[EntityKey("journal", "J2")].references == 1

    def test_bytes_per_pair(self):
        # 20,000 distinct in-window pairs citing 2,000 linked publications;
        # events are built as the fold reads them, as a stream would, so what
        # stays traced is the dedup set and the tallies
        rng = random.Random(7)
        count = 20_000
        tables = build_link_tables(
            [PublicationRecord(f"W{n}", journal_id=f"J{n % 50}") for n in range(2_000)], []
        )

        def events():
            for n in range(count):
                yield ReferenceEvent(f"C{n}", f"W{rng.randrange(2_000)}", 2024)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = build_store([], events(), tables, WINDOW, "journal")
            per_pair = (tracemalloc.get_traced_memory()[1] - before) / count
        finally:
            tracemalloc.stop()
        assert store.diagnostics.events_counted == count
        # measured 194 B on CPython 3.11, and 295 B with a tuple of
        # the two ids per pair; the bound leaves 20% for other interpreter versions
        assert per_pair < 235, per_pair


class TestPerFieldFanOut:
    def test_bytes_per_publication(self):
        # 2,000 publications in 20 fields, each with 3 of 500 institutions,
        # so the fold links up to 6,000 (institution, field) keys; 4,000 statements
        # and 2,000 reference events are built as the fold reads them
        rng = random.Random(7)
        count = 2_000
        institutions = [f"I{n}" for n in range(count // 4)]
        tables = build_link_tables(
            [PublicationRecord(f"W{n}", field=f"F{n % 20}") for n in range(count)],
            [
                AffiliationRecord(f"W{n}", frozenset(rng.sample(institutions, 3)))
                for n in range(count)
            ],
        )

        def statements():
            for n in range(2 * count):
                stance = STANCE_CLASSES[n % 3]
                yield StatementRecord(f"C{n}", f"W{rng.randrange(count)}", 2024, stance)

        def events():
            for n in range(count):
                yield ReferenceEvent(f"C{n}", f"W{rng.randrange(count)}", 2024)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = build_store(statements(), events(), tables, WINDOW, "institution", True)
            per_pub = (tracemalloc.get_traced_memory()[1] - before) / count
        finally:
            tracemalloc.stop()
        assert len(store.tallies) == 4_312
        # measured 456 B on CPython 3.11 with one counter list per credited
        # group, and 757 B with a zero tally per linked key built up front;
        # the bound leaves 20% for other interpreter versions
        assert per_pub < 550, per_pub


class TestUnknownKind:
    def test_rejected(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            fold([statement()], kind="author")


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
    # two groups, {I1} and {I1, I2} in F1, both credit (I1, F1): its tally is their sum
    @example(
        pubs=[PublicationRecord("W1", field="F1"), PublicationRecord("W2", field="F1")],
        affils=[
            AffiliationRecord("W1", frozenset({"I1"})),
            AffiliationRecord("W2", frozenset({"I1", "I2"})),
        ],
        statements=[
            StatementRecord("C1", "W1", 2024, "supporting"),
            StatementRecord("C1", "W2", 2024, "contrasting"),
            StatementRecord("C2", "W2", 2024, "supporting"),
        ],
        events=[ReferenceEvent("C1", cited, 2024) for cited in ("W1", "W2", "W1", "W2")],
        window=WINDOW,
        kind="institution",
        by_field=True,
    )
    def test_tallies_and_diagnostics(
        self, pubs, affils, statements, events, window, kind, by_field
    ):
        tables = build_link_tables(pubs, affils)
        if by_field and kind != "institution":
            with pytest.raises(ConfigError):
                build_store(statements, events, tables, window, kind, by_field=by_field)
            return
        store = build_store(statements, events, tables, window, kind, by_field=by_field)
        got = {
            (key.id, key.field): (t.supporting, t.mentioning, t.contrasting, t.references)
            for key, t in store.tallies.items()
        }
        assert all(key.kind == kind for key in store.tallies)
        expected, diag = naive_store(pubs, affils, statements, events, window, kind, by_field)
        assert got == expected
        assert {name: getattr(store.diagnostics, name) for name in diag} == diag


# every id of one or two characters over "12:" is linked, longer ones are
# not; events cut a few shared words at random points, so two pairs often
# read alike once joined ("1" + "12" and "11" + "2", or "1:" + "2" and
# "1" + ":2") and the same pair often recurs
key_alphabet = "12:"
key_pubs = [
    PublicationRecord("".join(chars), journal_id=f"J{chars[-1]}")
    for size in (1, 2)
    for chars in itertools.product(key_alphabet, repeat=size)
]


@st.composite
def split_events(draw):
    words = draw(st.lists(st.text(key_alphabet, min_size=2, max_size=4), min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(0, 20))):
        word = draw(st.sampled_from(words))
        cut = draw(st.integers(1, len(word) - 1))
        events.append(ReferenceEvent(word[:cut], word[cut:], draw(st.sampled_from([2023, 2024]))))
    return events


class TestPairKeyMatchesTupleOracle:
    @settings(max_examples=300, deadline=None)
    @given(split_events())
    def test_tallies_and_diagnostics(self, events):
        store = build_store([], events, build_link_tables(key_pubs, []), WINDOW, "journal")
        got = {key.id: tally.references for key, tally in store.tallies.items()}
        expected, diag = naive_store(key_pubs, [], [], events, WINDOW, "journal", False)
        assert got == {name: counts[3] for (name, _), counts in expected.items()}
        assert {name: getattr(store.diagnostics, name) for name in diag} == diag


class TestPerFieldGrouping:
    def test_keys_carry_field_label(self):
        store = fold([statement(cited="W1"), statement(cited="W2")], kind="institution", by_field=True)
        assert EntityKey("institution", "I1", "Physics") in store.tallies
        assert EntityKey("institution", "I1", "Maths") in store.tallies
        assert EntityKey("institution", "I2", "Physics") in store.tallies

    def test_fieldless_publication_is_unresolved(self):
        # W4 credits I1 but has no field label, so only grouping drops it
        tables = build_link_tables(
            [PublicationRecord("W4", journal_id="J2")],
            [AffiliationRecord("W4", frozenset({"I1"}))],
        )
        records = ([statement(cited="W4")], [event(cited="W4")])
        plain = build_store(*records, tables, WINDOW, "institution")
        assert plain.diagnostics.statements_unresolved == plain.diagnostics.events_unresolved == 0
        store = build_store(*records, tables, WINDOW, "institution", by_field=True)
        assert store.tallies == {}
        assert store.diagnostics.statements_unresolved == store.diagnostics.events_unresolved == 1

    @pytest.mark.parametrize("kind", ["journal", "field"])
    def test_other_kinds_refused_before_any_record_is_read(self, kind):
        def unread():
            raise AssertionError("a stream was read")
            yield

        with pytest.raises(ConfigError) as err:
            build_store(unread(), unread(), make_tables(), WINDOW, kind, by_field=True)
        assert str(err.value) == f"per-field grouping needs kind 'institution', got {kind!r}"


# lone surrogates included: dump_store never checks what it writes
any_characters = st.characters(exclude_categories=())
dump_texts = st.text(any_characters, min_size=1, max_size=12) | st.sampled_from(
    [
        'q"uote',
        "back\\slash",
        "ctl\x00\x1f\x7f",
        "ls\u2028ps\u2029",
        "astral\U0001f600",
        "\ud800",
        "lf\ncr\rcrlf\r\n",
        "Rzesz\u00f3w",
    ]
)
dump_counters = st.integers(0, 10**30)


@st.composite
def any_stores(draw):
    """A plain or per-field store of one kind, with any ids, labels and counters."""
    kind = draw(st.sampled_from(ENTITY_KINDS))
    labels = dump_texts if draw(st.booleans()) else st.none()
    tallies = draw(
        st.dictionaries(
            st.builds(EntityKey, st.just(kind), dump_texts, labels),
            st.builds(EntityTally, *[dump_counters] * 4),
            max_size=6,
        )
    )
    diagnostics = Diagnostics(*[draw(dump_counters) for _ in fields(Diagnostics)])
    return Store(kind, tallies, diagnostics)


def oracle_dump_store(store):
    def dumps(obj):
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)

    lines = []
    for key in sorted(store.tallies, key=lambda key: (key.kind, key.id, key.field or "")):
        tally = store.tallies[key]
        row = {"kind": key.kind, "id": key.id}
        if key.field is not None:
            row["field"] = key.field
        row["supporting"] = tally.supporting
        row["mentioning"] = tally.mentioning
        row["contrasting"] = tally.contrasting
        row["references"] = tally.references
        lines.append(dumps(row))
    diag = store.diagnostics
    lines.append(
        dumps(
            {
                "kind": "diagnostics",
                "statements_seen": diag.statements_seen,
                "statements_counted": diag.statements_counted,
                "statements_out_of_window": diag.statements_out_of_window,
                "statements_unresolved": diag.statements_unresolved,
                "events_seen": diag.events_seen,
                "events_counted": diag.events_counted,
                "events_out_of_window": diag.events_out_of_window,
                "events_unresolved": diag.events_unresolved,
                "events_duplicate": diag.events_duplicate,
                "out_of_window": diag.statements_out_of_window + diag.events_out_of_window,
                "unresolved": diag.statements_unresolved + diag.events_unresolved,
            }
        )
    )
    return "\n".join(lines) + "\n"


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

    def test_dump_peak_per_text_byte(self):
        # a 20,000-row per-field store: 500 institutions in 40 fields
        rng = random.Random(3)
        tallies = {
            EntityKey("institution", f"I{n // 40}", f"F{n % 40}"): EntityTally(
                rng.randrange(50), rng.randrange(500), rng.randrange(20), rng.randrange(1_000)
            )
            for n in range(20_000)
        }
        store = Store("institution", tallies, Diagnostics())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = dump_store(store)
            ratio = (tracemalloc.get_traced_memory()[1] - before) / len(text)
        finally:
            tracemalloc.stop()
        # measured 2.61 on CPython 3.11, and 3.60 when the rows are joined
        # and a "\n" appended, which copies the whole text once more
        assert ratio < 3, ratio

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
        if by_field and kind != "institution":
            with pytest.raises(ConfigError):
                fold(statements, events, kind, by_field=by_field)
            return
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
            '{"kind":"journal","id":"J\\ud800","supporting":0,"mentioning":0,"contrasting":0,'
            '"references":0}\n{"kind":"diagnostics"}\n',
            '{"kind":"journal","id":"J1","field":"F\\udc00","supporting":0,"mentioning":0,'
            '"contrasting":0,"references":0}\n{"kind":"diagnostics"}\n',
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

    def test_duplicate_entity_names_field_label(self):
        def row(label):
            return (
                '{"kind":"institution","id":"I1","field":"%s","supporting":1,'
                '"mentioning":0,"contrasting":0,"references":0}\n' % label
            )

        text = row("Physics") + row("Maths") + row("Physics") + '{"kind":"diagnostics"}\n'
        with pytest.raises(DataError) as info:
            load_store(io.StringIO(text))
        assert str(info.value) == "<store>:3: duplicate entity institution/I1 in field 'Physics'"

    def test_mixed_kinds_rejected(self):
        rows = (
            '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n'
            '{"kind":"field","id":"F1","supporting":1,"mentioning":0,"contrasting":0,"references":0}\n'
            '{"kind":"diagnostics"}\n'
        )
        with pytest.raises(DataError):
            load_store(io.StringIO(rows))

    @pytest.mark.parametrize("labels", [(None, "Physics"), ("Physics", None)])
    def test_mixed_per_field_and_plain_rejected(self, labels):
        # the same institution plain and in a field would rank twice
        tallies = {
            EntityKey("institution", "I1", label): EntityTally(1, 0, 0, 1) for label in labels
        }
        text = dump_store(Store("institution", tallies))
        with pytest.raises(DataError) as info:
            load_store(io.StringIO(text))
        assert str(info.value) == "<store>:2: mixed per-field and plain rows"

    @settings(deadline=None)
    @given(any_stores())
    def test_dump_matches_json_dumps(self, store):
        assert dump_store(store) == oracle_dump_store(store)

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


# -- load_store against a literal oracle -------------------------------------
#
# The oracle is the row checker as it stood before load_store was rewritten
# for speed: json.loads, isinstance checks, a counters dict.  Two things
# differ from that code: the duplicate-entity message names the field label,
# and a store mixing per-field and plain rows is rejected.


def oracle_load_store(source, path="<store>"):
    store = Store(kind=None)
    per_field = None
    saw_diagnostics = False
    for line_no, line in enumerate(source, start=1):
        if not line.strip():
            continue
        if saw_diagnostics:
            raise DataError(f"{path}:{line_no}: rows after the diagnostics record")
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict) or "kind" not in row:
            raise DataError(f"{path}:{line_no}: expected an object with a 'kind' key")
        if row["kind"] == "diagnostics":
            for spec in fields(Diagnostics):
                value = row.get(spec.name, 0)
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise DataError(
                        f"{path}:{line_no}: diagnostics {spec.name!r} must be a "
                        f"nonnegative integer, got {value!r}"
                    )
                setattr(store.diagnostics, spec.name, value)
            saw_diagnostics = True
            continue
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
        if per_field is None:
            per_field = label is not None
        elif per_field != (label is not None):
            raise DataError(f"{path}:{line_no}: mixed per-field and plain rows")
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
            where = "" if label is None else f" in field {label!r}"
            raise DataError(f"{path}:{line_no}: duplicate entity {kind}/{entity_id}{where}")
        store.tallies[key] = EntityTally(**counters)
    if not saw_diagnostics:
        raise DataError(f"{path}: missing trailing diagnostics record")
    return store


def load_outcome(loader, text):
    try:
        return ("store", loader(io.StringIO(text)))
    except DataError as exc:
        return ("error", str(exc))


def mostly(good, bad, odds=12):
    """``good`` about ``odds`` times in ``odds + 1``, else ``bad``."""
    return st.integers(0, odds).flatmap(lambda n: bad if n == 0 else good)


# JSON text of one member value; NaN and huge integers are written by hand
# because json.dumps will not produce them from a value
COUNTER_VALUES = mostly(
    st.integers(0, 10**6).map(str),
    st.sampled_from(
        ["-1", "true", "false", "1.0", "2e3", '"3"', "null", "NaN", "Infinity", "[]", "9" * 5000]
    ),
    odds=30,
)
ID_VALUES = mostly(
    st.sampled_from(["J1", "J2", "I1", 'e\u0301|"', "x y"]).map(json.dumps),
    st.sampled_from(['""', "7", "null", "[]"]),
)
LABEL_VALUES = mostly(
    st.sampled_from(["Physics", "Maths"]).map(json.dumps), st.sampled_from(['""', "1", "null"])
)
DIAGNOSTICS_VALUES = mostly(
    st.integers(0, 50).map(str), st.sampled_from(["-2", "true", "0.5", "null"])
)


@st.composite
def entity_rows(draw, kind, by_field):
    """An entity row of mostly the file's kind; each member is mostly present
    once, sometimes absent or repeated."""
    values = {
        "kind": mostly(
            st.just(json.dumps(kind)),
            st.sampled_from(['"journal"', '"field"', '"city"', '""', "3", "null"]),
        ),
        "id": ID_VALUES,
        "supporting": COUNTER_VALUES,
        "mentioning": COUNTER_VALUES,
        "contrasting": COUNTER_VALUES,
        "references": COUNTER_VALUES,
    }
    if by_field:
        values["field"] = LABEL_VALUES
    parts = []
    for key, value in values.items():
        for _ in range(draw(mostly(st.just(1), st.sampled_from([0, 2]), odds=30))):
            parts.append(f'"{key}": {draw(value)}')
    if draw(st.booleans()):
        parts = draw(st.permutations(parts))
    return "{" + ", ".join(parts) + "}"


@st.composite
def diagnostics_rows(draw):
    names = draw(st.lists(st.sampled_from([spec.name for spec in fields(Diagnostics)]), max_size=3))
    parts = ['"kind": "diagnostics"'] + [f'"{name}": {draw(DIAGNOSTICS_VALUES)}' for name in names]
    return "{" + ", ".join(draw(st.permutations(parts))) + "}"


@st.composite
def store_texts(draw):
    """A store file: mostly entity rows of one kind, then a diagnostics row,
    with now and then a blank or broken line, a stray diagnostics row, a BOM,
    whitespace, trailing data or a bare CR, which ends no line, between two
    rows."""
    kind = draw(st.sampled_from(ENTITY_KINDS))
    by_field = draw(st.booleans())
    row = mostly(
        entity_rows(kind, by_field),
        diagnostics_rows() | st.sampled_from(["", "  ", "not json", "[1]", "{}", '{"kind": [1]}', "{"]),
        odds=20,
    )
    lines = draw(st.lists(row, max_size=8))
    if draw(mostly(st.just(True), st.just(False), odds=8)):
        lines.append(draw(diagnostics_rows()))
    lines = [
        draw(mostly(st.just(""), st.sampled_from([" ", "\ufeff"]), odds=40))
        + line
        + draw(mostly(st.just(""), st.sampled_from([" ", " x", "\r"]), odds=40))
        for line in lines
    ]
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return "".join(line + draw(mostly(st.just(ending), st.just("\r"))) for line in lines)


class TestLoadStoreMatchesOracle:
    @settings(max_examples=500, deadline=None)
    @given(store_texts())
    def test_equal_store_or_same_error(self, text):
        assert load_outcome(load_store, text) == load_outcome(oracle_load_store, text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                '{"kind":"field","id":"F1","supporting":3,"mentioning":1,"contrasting":1,'
                '"references":9}\r\n{"kind":"diagnostics","events_seen":4}\r\n',
                id="crlf",
            ),
            pytest.param(
                '{"kind":"journal","id":"J1","field":"Maths","supporting":1,"mentioning":0,'
                '"contrasting":0,"references":0}\n'
                '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":0,'
                '"references":0}\n{"kind":"diagnostics"}\n',
                id="same-id-other-field",
            ),
            pytest.param(
                '{"kind":"institution","id":"I1","supporting":1,"mentioning":0,'
                '"contrasting":0,"references":0}\n'
                '{"kind":"institution","id":"I2","field":"Physics","supporting":1,'
                '"mentioning":0,"contrasting":0,"references":0}\n{"kind":"diagnostics"}\n',
                id="plain-then-per-field",
            ),
            pytest.param('{"kind":"diagnostics"}\n\n  \n', id="blank-after-diagnostics"),
            pytest.param('{"kind":"diagnostics"}\n{"kind":"diagnostics"}\n', id="two-diagnostics"),
        ],
    )
    def test_named_cases(self, text):
        assert load_outcome(load_store, text) == load_outcome(oracle_load_store, text)
