import csv
import io
import json
import math
import random
import tracemalloc
from dataclasses import asdict, astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank.aggregate import Store, Window, build_store, dump_store, load_store
from citerank.errors import ConfigError, DataError, ParseError
from citerank.linking import ENTITY_KINDS, EntityKey, build_link_tables
from citerank.metrics import DEFAULT_SI_CONFIG, EntityTally, SiConfig
from citerank.rank import (
    METRICS,
    ExclusionReport,
    RankedRow,
    RankSpec,
    correlate,
    export_rows,
    field_breakdown,
    rank_entities,
    round_display,
    write_breakdown,
    write_rows,
)
import reference
from test_aggregate import as_model


def store_of(tallies: dict[EntityKey, EntityTally]):
    return Store(dict(tallies))


def export_breakdown(rows, fmt):
    out = io.StringIO()
    write_breakdown(rows, fmt, out)
    return out.getvalue()


def journal_store(rows: dict[str, tuple[int, int, int, int]]):
    return store_of(
        {
            EntityKey("journal", name): EntityTally(*counts)
            for name, counts in rows.items()
        }
    )


class TestRoundDisplay:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.9013893241408127, "0.90"),
            (0.975, "0.98"),  # half rounds up, not to even
            (0.125, "0.13"),
            (0.974999, "0.97"),
            (1.0, "1.00"),
            (0.0, "0.00"),
            (-1.785, "-1.79"),  # away from zero on the negative side too
            (6.244999, "6.24"),
            (None, ""),
            # past the 28 digits of the default decimal context
            (1e30, "1" + "0" * 30 + ".00"),
            (-1.7976931348623157e308, "-17976931348623157" + "0" * 292 + ".00"),
            (5e-324, "0.00"),
        ],
    )
    def test_cases(self, value, expected):
        assert round_display(value) == expected


class TestRankEntities:
    def test_orders_by_exact_metric_not_display(self):
        # both display as 5.87; the exact values must decide
        store = journal_store(
            {
                "A": (100, 0, 0, 742000),
                "B": (100, 0, 0, 741000),
            }
        )
        rows, _ = rank_entities(store, RankSpec(metric="si"))
        assert [row.entity.id for row in rows] == ["A", "B"]
        assert rows[0].si_display == rows[1].si_display == "5.87"

    def test_exact_tie_breaks_by_id_ascending(self):
        store = journal_store(
            {
                "Zeta": (50, 0, 0, 1000),
                "Alpha": (50, 0, 0, 1000),
                "Mid": (50, 0, 0, 1000),
            }
        )
        rows, _ = rank_entities(store, RankSpec(metric="si"))
        assert [row.entity.id for row in rows] == ["Alpha", "Mid", "Zeta"]
        assert [row.rank for row in rows] == [1, 2, 3]

    def test_usi_ranking_puts_uncontested_block_first(self):
        store = journal_store(
            {
                "clean_a": (10, 0, 0, 5),
                "clean_b": (3, 9, 0, 5),
                "contested": (1000, 0, 1, 5),
                "zero": (0, 0, 4, 5),
            }
        )
        rows, _ = rank_entities(store, RankSpec(metric="usi"))
        assert [row.entity.id for row in rows] == [
            "clean_a",
            "clean_b",
            "contested",
            "zero",
        ]
        assert rows[0].usi_exact == rows[1].usi_exact == 1.0
        assert rows[3].usi_exact == 0.0

    def test_si_ranking_excludes_undefined(self):
        store = journal_store(
            {
                "ok": (5, 0, 0, 100),
                "no_valenced": (0, 50, 0, 100),  # usi undefined
                "zero_usi": (0, 0, 5, 100),  # usi 0, si undefined
                "no_refs": (5, 0, 0, 0),  # log of zero
            }
        )
        rows, report = rank_entities(store, RankSpec(metric="si"))
        assert [row.entity.id for row in rows] == ["ok"]
        assert report.undefined_metric == 3

    def test_usi_ranking_keeps_zero_usi(self):
        store = journal_store({"zero_usi": (0, 0, 5, 100)})
        rows, report = rank_entities(store, RankSpec(metric="usi"))
        assert len(rows) == 1 and report.undefined_metric == 0

    def test_thresholds_and_first_rejecting_filter(self):
        store = journal_store(
            {
                "ok": (10, 0, 2, 50),
                "few_valenced": (1, 99, 0, 50),
                "few_refs": (10, 0, 2, 3),
                "fails_both": (1, 0, 0, 1),
            }
        )
        rows, report = rank_entities(
            store, RankSpec(metric="si", min_valenced=5, min_references=10)
        )
        assert [row.entity.id for row in rows] == ["ok"]
        assert report.below_min_valenced == 2  # fails_both lands here, not in both
        assert report.below_min_references == 1

    def test_top_k(self):
        store = journal_store({f"E{i:02d}": (10 + i, 0, 0, 100) for i in range(10)})
        rows, report = rank_entities(store, RankSpec(metric="si", top_k=3))
        assert len(rows) == 3
        assert report.beyond_top_k == 7
        assert [row.rank for row in rows] == [1, 2, 3]

    def test_rows_plus_exclusions_partition_store(self):
        rng = random.Random(3)
        store = journal_store(
            {
                f"E{i}": (
                    rng.randrange(0, 5),
                    rng.randrange(0, 5),
                    rng.randrange(0, 3),
                    rng.randrange(0, 8),
                )
                for i in range(200)
            }
        )
        spec = RankSpec(metric="si", min_valenced=2, min_references=3, top_k=20)
        rows, report = rank_entities(store, spec)
        assert len(rows) + report.total == len(store.tallies)

    def test_order_independent_of_store_insertion(self):
        rng = random.Random(11)
        counts = {
            f"E{i}": (rng.randrange(1, 100), 0, rng.randrange(0, 5), rng.randrange(1, 500))
            for i in range(50)
        }
        names = list(counts)
        baseline = rank_entities(journal_store(counts), RankSpec())[0]
        for _ in range(3):
            rng.shuffle(names)
            shuffled = journal_store({name: counts[name] for name in names})
            assert rank_entities(shuffled, RankSpec())[0] == baseline

    def test_kind_mismatch_rejected(self):
        store = journal_store({"A": (1, 0, 0, 1)})
        with pytest.raises(ConfigError):
            rank_entities(store, RankSpec(kind="institution"))

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            RankSpec(metric="h")
        with pytest.raises(ConfigError):
            RankSpec(top_k=0)
        with pytest.raises(ConfigError):
            RankSpec(min_valenced=-1)

    def test_infinite_si_is_a_data_error(self):
        # log10(1/1000) * 1e308 leaves the float range: -inf, never a row
        store = journal_store({"A": (1, 0, 999, 1000), "B": (5, 0, 5, 40)})
        spec = RankSpec(si_config=SiConfig(exponent=1e308))
        for metric in ("si", "usi"):
            with pytest.raises(DataError, match="si is not finite"):
                rank_entities(store, RankSpec(metric=metric, si_config=spec.si_config))

    def test_custom_si_config_changes_scores_not_contract(self):
        store = journal_store({"A": (90, 0, 10, 1000)})
        natural = rank_entities(
            store, RankSpec(si_config=SiConfig(log_base=math.e))
        )[0][0]
        assert natural.si_exact == pytest.approx(math.log(1000 * 0.9**2), abs=1e-12)


class TestFieldBreakdown:
    def make_store(self):
        return store_of(
            {
                EntityKey("institution", "I1", "Physics"): EntityTally(10, 5, 2, 100),
                EntityKey("institution", "I2", "Physics"): EntityTally(50, 5, 1, 400),
                EntityKey("institution", "I1", "Maths"): EntityTally(7, 0, 1, 50),
                EntityKey("institution", "I3", "Maths"): EntityTally(0, 9, 0, 50),
            }
        )

    def test_rows_grouped_and_sorted(self):
        rows = field_breakdown(self.make_store())
        assert [(row.entity.field, row.entity.id) for row in rows] == [
            ("Maths", "I1"),
            ("Physics", "I2"),
            ("Physics", "I1"),
        ]

    def test_undefined_rows_dropped(self):
        rows = field_breakdown(self.make_store())
        assert all(row.si_exact is not None for row in rows)
        assert len(rows) == 3  # I3/Maths has no valenced statements

    def test_requires_by_field_store(self):
        with pytest.raises(ConfigError) as err:
            field_breakdown(journal_store({"A": (1, 0, 0, 1)}))
        assert str(err.value) == "fields needs a per-field institution store"

    @pytest.mark.parametrize("kind", ["journal", "field"])
    def test_requires_institution_store(self, kind):
        # the rows would be labelled as institutions
        store = store_of({EntityKey(kind, "X1", "Bio"): EntityTally(5, 0, 1, 50)})
        with pytest.raises(ConfigError) as err:
            field_breakdown(store)
        assert str(err.value) == "fields needs a per-field institution store"

    def test_rows_without_field_label_rejected(self):
        store = self.make_store()
        store.tallies[EntityKey("institution", "I4")] = EntityTally(1, 0, 0, 1)
        with pytest.raises(ConfigError):
            field_breakdown(store)

    def test_infinite_si_is_a_data_error(self):
        store = self.make_store()
        store.tallies[EntityKey("institution", "I4", "Maths")] = EntityTally(1, 0, 999, 1000)
        with pytest.raises(DataError, match="si is not finite"):
            field_breakdown(store, SiConfig(exponent=1e308))

    def test_empty_store_gives_header_only(self):
        # an empty per-field store cannot be told from any other empty store
        rows = field_breakdown(store_of({}))
        assert rows == []
        assert export_breakdown(rows, "csv") == reference.breakdown_table([], "csv")


class TestCorrelate:
    def make_store(self):
        rng = random.Random(5)
        return journal_store(
            {
                f"E{i}": (rng.randrange(1, 100), 0, rng.randrange(1, 20), rng.randrange(1, 900))
                for i in range(40)
            }
        )

    def ranked_rows(self):
        return rank_entities(self.make_store(), RankSpec(metric="usi"))[0]

    def test_self_correlation_is_one(self):
        rows = self.ranked_rows()
        external = {row.entity.id: row.usi_exact for row in rows}
        result = correlate(self.make_store(), external, metric="usi")
        assert result.r == pytest.approx(1.0, abs=1e-12)
        assert result.matched == len(rows)
        assert result.unmatched_rows == 0
        assert result.unmatched_external == 0

    def test_unmatched_counted_on_both_sides(self):
        rows = self.ranked_rows()
        external = {row.entity.id: 1.0 + i for i, row in enumerate(rows[:10])}
        external["nobody"] = 3.0
        result = correlate(self.make_store(), external, metric="usi")
        assert result.matched == 10
        assert result.unmatched_rows == len(rows) - 10
        assert result.unmatched_external == 1

    def test_external_id_of_an_unscored_entity_is_unmatched_external(self):
        # E is in the store but has no valenced statements, so no usi
        store = journal_store(
            {"A": (3, 0, 1, 10), "B": (1, 0, 1, 20), "C": (5, 0, 2, 30), "E": (0, 4, 0, 40)}
        )
        result = correlate(store, {"A": 1.0, "B": 2.0, "C": 4.0, "E": 3.0}, metric="usi")
        assert (result.matched, result.unmatched_rows, result.unmatched_external) == (3, 0, 1)

    def test_degenerate_raises(self):
        rows = self.ranked_rows()
        with pytest.raises(DataError):
            correlate(self.make_store(), {rows[0].entity.id: 1.0}, metric="usi")
        with pytest.raises(DataError):
            correlate(self.make_store(), {row.entity.id: 5.0 for row in rows}, metric="usi")

    def test_bad_metric_rejected(self):
        with pytest.raises(ConfigError):
            correlate(self.make_store(), {}, metric="h")

    def test_per_field_store_rejected(self):
        # each id would be matched once per field
        store = store_of(
            {
                EntityKey("institution", name, label): EntityTally(3, 0, 1, 10)
                for name in ("I1", "I2")
                for label in ("Maths", "Physics")
            }
        )
        with pytest.raises(ConfigError, match="per-field"):
            correlate(store, {"I1": 1.0, "I2": 2.0})


# -- correlate against the reference model's ranked rows -------------------


def correlation_outcome(compute):
    try:
        result = compute()
    except (DataError, reference.Refused) as exc:
        return ("error", str(exc))
    return {**result, "r": result["r"].hex()}


# small counters make ties in usi and si common, so the summing order counts;
# a usi of 1/1000 sends si past the float range under exponent 1e308
CORRELATE_TALLIES = st.builds(
    EntityTally,
    st.integers(0, 6),
    st.integers(0, 3),
    st.sampled_from([0, 1, 2, 3, 4, 5, 6, 5994]),
    st.integers(0, 40) | st.sampled_from([0, 10**9]),
)
SI_CONFIGS = [DEFAULT_SI_CONFIG, SiConfig(exponent=1.5, log_base=math.e), SiConfig(exponent=1e308)]
CORRELATE_SCORES = (
    st.integers(-3, 3)
    | st.floats(-1e6, 1e6, allow_nan=False)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def correlate_cases(draw):
    """A plain store of any kind, a score map that misses some of its ids
    and names foreign ones, a metric and an si configuration."""
    kind = draw(st.sampled_from(["journal", "institution", "field"]))
    ids = [f"E{i}" for i in range(draw(st.integers(0, 12)))]
    store = store_of({EntityKey(kind, name): draw(CORRELATE_TALLIES) for name in ids})
    external = {}
    for name in draw(st.permutations(ids + ["X1", "X2"])):
        if draw(st.integers(0, 3)):
            external[name] = draw(CORRELATE_SCORES)
    metric = draw(st.sampled_from(METRICS))
    return store, external, metric, draw(st.sampled_from(SI_CONFIGS))


class TestCorrelateMatchesRankedOracle:
    @settings(max_examples=500, deadline=None)
    @given(correlate_cases())
    def test_same_r_bits_counts_and_errors(self, case):
        store, external, metric, si_config = case
        tallies, _ = as_model(store)
        assert correlation_outcome(
            lambda: asdict(correlate(store, external, metric, si_config))
        ) == correlation_outcome(
            lambda: reference.correlate(tallies, external, metric, *astuple(si_config))
        )


# -- fields against the reference model's cells ---------------------------


@st.composite
def breakdown_cases(draw):
    """A per-field institution store and an si configuration.  Its cells
    share a few tallies, so exact si ties within and across fields are
    common, and undefined-si cells are too."""
    pool = draw(st.lists(CORRELATE_TALLIES, min_size=1, max_size=3))
    keys = st.builds(
        EntityKey,
        st.just("institution"),
        st.sampled_from(["I1", "I2", "I3", "I4"]),
        st.sampled_from(["Maths", "Physics", "Bio"]),
    )
    store = store_of(draw(st.dictionaries(keys, st.sampled_from(pool), max_size=12)))
    return store, draw(st.sampled_from(SI_CONFIGS))


def breakdown_outcome(compute):
    try:
        return compute()
    except (DataError, reference.Refused) as exc:
        return ("error", str(exc))


class TestBreakdownMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(breakdown_cases())
    def test_same_cells_and_errors(self, case):
        store, si_config = case
        tallies, _ = as_model(store)
        rows = breakdown_outcome(lambda: field_breakdown(store, si_config))
        if isinstance(rows, list):
            assert sorted(row.rank for row in rows) == list(range(1, len(rows) + 1))
            rows = model_cells(rows)
        assert rows == breakdown_outcome(
            lambda: reference.breakdown(tallies, *astuple(si_config))
        )


# -- a store and the same store read back from its file ---------------------

READERS = {
    **{
        f"rank by {metric}": lambda store, m=metric: rank_entities(store, RankSpec(m))
        for metric in METRICS
    },
    **{
        f"rank expecting {kind}": lambda store, k=kind: rank_entities(store, RankSpec(kind=k))
        for kind in ENTITY_KINDS
    },
    "fields": field_breakdown,
    **{
        f"correlate by {metric}": lambda store, m=metric: correlate(store, {"E1": 1, "E2": 3}, m)
        for metric in METRICS
    },
}


def reader_outcomes(store: Store) -> dict:
    """Each reader's result on ``store``, or its error's type and message."""
    outcomes = {}
    for name, read in READERS.items():
        try:
            outcomes[name] = read(store)
        except (ConfigError, DataError) as exc:
            outcomes[name] = (type(exc).__name__, str(exc))
    return outcomes


@st.composite
def read_back_stores(draw):
    """A plain or per-field store of one kind, empty ones included, with ids
    and labels that survive the round trip."""
    kind = draw(st.sampled_from(ENTITY_KINDS))
    labels = st.sampled_from(["Maths", "Physics"]) if draw(st.booleans()) else st.none()
    keys = st.builds(EntityKey, st.just(kind), st.sampled_from(["E1", "E2", "E3"]), labels)
    return store_of(draw(st.dictionaries(keys, CORRELATE_TALLIES, max_size=5)))


class TestReadersAgreeOnReadBack:
    """A store's kind and grouping are read from its rows, so every reader
    gives a store and its read-back copy the same result or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(read_back_stores())
    def test_same_outcome(self, store):
        text = dump_store(store)
        if any(key.field is not None and key.kind != "institution" for key in store.tallies):
            # no aggregate run writes such a store, and it is refused where it is read
            with pytest.raises(ParseError, match="^<store>:1: per-field rows need kind") as error:
                load_store(io.StringIO(text))
            with pytest.raises(reference.Refused) as model_error:
                reference.read_store(text, "<store>")
            assert str(model_error.value) == str(error.value)
            return
        loaded = load_store(io.StringIO(text))
        assert loaded == store
        assert reader_outcomes(loaded) == reader_outcomes(store)

    @pytest.mark.parametrize(
        "kind, by_field", [(kind, False) for kind in ENTITY_KINDS] + [("institution", True)]
    )
    def test_empty_store_of_every_kind(self, kind, by_field):
        # aggregate over streams that resolve nothing writes a store with no rows
        tables = build_link_tables([], [], kind, by_field)
        store = build_store([], [], tables, Window(2024, 2024), kind, by_field)
        assert reader_outcomes(load_store(io.StringIO(dump_store(store)))) == reader_outcomes(store)
        assert field_breakdown(store) == []
        assert rank_entities(store, RankSpec(kind="institution")) == ([], ExclusionReport())


class TestExports:
    def rows(self):
        store = journal_store(
            {
                "Journal of Things, Part B": (1234, 5678, 90, 100000),
                "Plain|Pipes": (10, 3, 1, 500),
            }
        )
        return rank_entities(store, RankSpec(metric="si"))[0]

    def test_csv_header_exact(self):
        text = export_rows(self.rows(), "csv")
        assert text.splitlines()[0] == ",".join(reference.RANK_COLUMNS)

    def test_csv_quotes_commas_and_round_trips_exact_values(self):
        rows = self.rows()
        parsed = list(csv.DictReader(io.StringIO(export_rows(rows, "csv"))))
        assert len(parsed) == len(rows)
        by_id = {entry["id"]: entry for entry in parsed}
        assert "Journal of Things, Part B" in by_id
        for row in rows:
            entry = by_id[row.entity.id]
            assert float(entry["usi_exact"]) == row.usi_exact
            assert float(entry["si_exact"]) == row.si_exact
            assert int(entry["rank"]) == row.rank

    def test_json_round_trips(self):
        rows = self.rows()
        payload = json.loads(export_rows(rows, "json"))
        assert [entry["id"] for entry in payload] == [row.entity.id for row in rows]
        assert payload[0]["usi_exact"] == rows[0].usi_exact

    def test_markdown_layout(self):
        text = export_rows(self.rows(), "md")
        lines = text.splitlines()
        assert lines[0] == "| Entity | Supporting | Mentioning | Contrasting | USI | SI |"
        assert set(lines[1].replace("|", "").split()) <= {":--", "--:"}
        assert "1,234" in text  # thousands separators in the human view
        assert "Plain\\|Pipes" in text  # pipes escaped so the table stays a table

    def test_markdown_line_breaks_stay_in_their_row(self):
        store = journal_store({"J\nX": (3, 0, 1, 50), "K\r\nY": (2, 0, 1, 50), "L\rZ": (1, 0, 1, 50)})
        text = export_rows(rank_entities(store, RankSpec())[0], "md")
        assert text.split("\n")[2:] == [
            "| J<br>X | 3 | 0 | 1 | 0.75 | 1.45 |",
            "| K<br>Y | 2 | 0 | 1 | 0.67 | 1.35 |",
            "| L<br>Z | 1 | 0 | 1 | 0.50 | 1.10 |",
            "",
        ]

    def test_breakdown_markdown_line_breaks_stay_in_their_row(self):
        key = EntityKey("institution", "I\r1", "Phys\nics")
        store = store_of({key: EntityTally(5, 0, 1, 50)})
        text = export_breakdown(field_breakdown(store), "md")
        assert text.split("\n")[2:] == ["| I<br>1 | Phys<br>ics | 5 | 0 | 1 | 50 | 0.83 | 1.54 |", ""]

    def test_markdown_deterministic(self):
        assert export_rows(self.rows(), "md") == export_rows(self.rows(), "md")

    def test_empty_rows_still_valid(self):
        assert export_rows([], "csv") == reference.rank_table([], "csv")
        assert json.loads(export_rows([], "json")) == []
        assert export_rows([], "md").splitlines()[0].startswith("| Entity")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            export_rows([], "xml")

    def test_breakdown_csv_header_exact(self):
        store = store_of({EntityKey("institution", "I1", "Physics"): EntityTally(5, 0, 1, 50)})
        text = export_breakdown(field_breakdown(store), "csv")
        assert text.splitlines()[0] == ",".join(reference.BREAKDOWN_COLUMNS)
        entry = next(csv.DictReader(io.StringIO(text)))
        assert entry["institution"] == "I1"
        assert entry["field"] == "Physics"
        assert float(entry["usi_exact"]) == 5 / 6


# -- exports against the reference model -------------------------------------

EXPORT_SAMPLES = [
    'q"uote',
    "back\\slash",
    "ctl\x00\x1f\x7f",
    "ls\u2028ps\u2029",
    "astral\U0001f600",
    "pi|pe",
    "\ud800",
    "com,ma",
    "lf\ncr\rcrlf\r\n",
    "bare\rcr",
]
export_texts = st.text(min_size=1, max_size=12) | st.sampled_from(EXPORT_SAMPLES)
tallies = st.builds(EntityTally, *[st.integers(0, 10**30)] * 4)
usi_values = st.floats(0.0, 1.0)
# a huge --exponent drives si to any finite float; the display string of
# each must still be exact
si_values = st.floats(allow_nan=False, allow_infinity=False)
ranked_rows = st.lists(
    st.builds(
        RankedRow,
        st.integers(1, 10**6),
        st.builds(EntityKey, st.sampled_from(["journal", "institution", "field"]), export_texts),
        tallies,
        usi_values,
        st.none() | si_values,
    ),
    max_size=6,
)
breakdown_rows = st.lists(
    st.builds(
        RankedRow,
        st.integers(1, 10**6),
        st.builds(EntityKey, st.just("institution"), export_texts, export_texts),
        tallies,
        usi_values,
        si_values,
    ),
    max_size=6,
)


def model_rows(rows):
    """Ranked rows as the reference model's."""
    return [
        reference.Ranked(row.rank, *row.entity[:2], *astuple(row.tally), row.usi_exact,
                         row.si_exact)
        for row in rows
    ]


def model_cells(rows):
    """Breakdown rows as the reference model's."""
    return [
        reference.Cell(*row.entity[1:], *astuple(row.tally), row.usi_exact, row.si_exact)
        for row in rows
    ]


class TestJsonExportMatchesDumps:
    @settings(deadline=None)
    @given(ranked_rows)
    def test_rows(self, rows):
        assert export_rows(rows, "json") == reference.rank_table(model_rows(rows), "json")

    @settings(deadline=None)
    @given(breakdown_rows)
    def test_breakdown(self, rows):
        expected = reference.breakdown_table(model_cells(rows), "json")
        assert export_breakdown(rows, "json") == expected

    def test_empty(self):
        assert export_rows([], "json") == "[]\n"
        assert export_breakdown([], "json") == "[]\n"


class TestCsvAndMarkdownExportsMatchOracles:
    @settings(deadline=None)
    @given(ranked_rows)
    def test_rows(self, rows):
        assert export_rows(rows, "csv") == reference.rank_table(model_rows(rows), "csv")
        text = export_rows(rows, "md")
        assert text == reference.rank_table(model_rows(rows), "md")
        assert text.count("\n") == len(rows) + 2

    @settings(deadline=None)
    @given(breakdown_rows)
    def test_breakdown(self, rows):
        assert export_breakdown(rows, "csv") == reference.breakdown_table(model_cells(rows), "csv")
        text = export_breakdown(rows, "md")
        assert text == reference.breakdown_table(model_cells(rows), "md")
        assert text.count("\n") == len(rows) + 2


def read_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


class TestCsvReadsBack:
    """A csv reader gets back every cell, whatever an id or label holds."""

    @pytest.mark.parametrize("text", EXPORT_SAMPLES)
    def test_rows(self, text):
        rows = rank_entities(journal_store({text: (3, 0, 1, 50)}), RankSpec())[0]
        row = rows[0]
        assert read_csv(export_rows(rows, "csv")) == [
            list(reference.RANK_COLUMNS),
            [
                "journal", text, "3", "0", "1", "50", repr(row.usi_exact),
                repr(row.si_exact), row.usi_display, row.si_display, "1",
            ],
        ]

    @pytest.mark.parametrize("text", EXPORT_SAMPLES)
    def test_breakdown(self, text):
        store = store_of({EntityKey("institution", text, text): EntityTally(5, 0, 1, 50)})
        rows = field_breakdown(store)
        assert read_csv(export_breakdown(rows, "csv")) == [
            list(reference.BREAKDOWN_COLUMNS),
            [text, text, "5", "0", "1", "50", repr(rows[0].usi_exact), repr(rows[0].si_exact)],
        ]


# -- the handle path against the string exports -------------------------------


def written_bytes(write, rows, fmt):
    """What ``write`` puts in a UTF-8 file; lone surrogates pass through so
    every drawn text has bytes."""
    handle = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="surrogatepass")
    write(rows, fmt, handle)
    handle.flush()
    return handle.buffer.getvalue()


def string_bytes(text):
    return text.encode("utf-8", "surrogatepass")


class TestWrittenBytesMatchStringExports:
    @settings(deadline=None)
    @given(ranked_rows)
    def test_rows(self, rows):
        for fmt in ("csv", "json", "md"):
            assert written_bytes(write_rows, rows, fmt) == string_bytes(export_rows(rows, fmt))

    @settings(deadline=None)
    @given(breakdown_rows)
    def test_breakdown(self, rows):
        for fmt in ("csv", "json", "md"):
            assert written_bytes(write_breakdown, rows, fmt) == string_bytes(
                export_breakdown(rows, fmt)
            )

    def test_empty(self):
        for write, table, md_columns in (
            (write_rows, reference.rank_table, "| Entity |"),
            (write_breakdown, reference.breakdown_table, "| Institution |"),
        ):
            assert written_bytes(write, [], "json") == b"[]\n"
            assert written_bytes(write, [], "csv") == table([], "csv").encode()
            md = written_bytes(write, [], "md").decode()
            assert md.startswith(md_columns)
            assert md.count("\n") == 2 and md.endswith("|\n")

    def test_unknown_format_writes_nothing(self):
        out = io.StringIO()
        with pytest.raises(ConfigError):
            write_rows([], "xml", out)
        assert out.getvalue() == ""


class _Discard:
    def write(self, text):
        return len(text)


class TestWritingAllocatesPerRow:
    """The memory a table costs to write follows one row, not the table."""

    def ranking(self):
        store = journal_store(
            {f"Journal {i:05d}": (i % 97 + 1, i % 13, i % 7 + 1, 50 + i) for i in range(5000)}
        )
        return rank_entities(store, RankSpec())[0]

    @pytest.mark.parametrize("fmt", ["csv", "json", "md"])
    def test_traced_peak_is_bounded(self, fmt):
        rows = self.ranking()
        assert len(rows) == 5000
        assert len(export_rows(rows, "json")) > 1_000_000
        tracemalloc.start()
        try:
            write_rows(rows, fmt, _Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
