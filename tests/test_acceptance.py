"""End-to-end acceptance checks over the published ranking snapshots.

Each numbered criterion is one test (or one parametrized case set); the
conftest hook prints a PASS/FAIL line per criterion after the run.

Three cases of the ranking-order criterion assert published row orders that
are not derivable from the published two-decimal values; they fail by
design and document the gap rather than papering over it.
"""

import csv
import io
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from citerank.aggregate import Store, Window, build_store, dump_store
from citerank.cli import main
from citerank.ingest import (
    AffiliationRecord,
    PublicationRecord,
    ReferenceEvent,
    SkipReport,
    StatementRecord,
    parse_statement,
    stream,
)
from citerank.linking import ENTITY_KINDS, EntityKey, build_link_tables
from citerank.metrics import (
    DEFAULT_SI_CONFIG,
    EntityTally,
    SiConfig,
    hs_index,
    implied_references,
    pearson,
    si,
    usi,
)
from citerank.rank import RankSpec, correlate, rank_entities, round_display
from published_rankings import (
    ALL_TABLES,
    INSTITUTIONS_BY_SI,
    INSTITUTIONS_BY_USI,
    JOURNALS_BY_SI,
    USI_DISPLAY_ANOMALY,
)
import reference

WINDOW = Window(2024, 2024)
GOLDEN_DIR = Path(__file__).parent / "golden"


def usi_exact(row) -> float:
    return row.supporting / (row.supporting + row.contrasting)


def snapshot_store(table, config: SiConfig = DEFAULT_SI_CONFIG) -> Store:
    """Store seeded with published counts.

    Reference counts were never published, so they are reconstructed by
    inverting the displayed (two-decimal) score at the exact support ratio.
    """
    store = Store()
    for row in table.rows:
        references = round(implied_references(row.si, usi_exact(row), config))
        store.tallies[EntityKey(table.kind, row.name)] = EntityTally(
            row.supporting, row.mentioning, row.contrasting, references
        )
    return store


# -- criterion 1: USI reproduction for every published row -----------------


def test_criterion_1_usi_table_reproduction():
    start = time.perf_counter()
    checked = 0
    for table in ALL_TABLES:
        for row in table.rows:
            display = round_display(usi(row.supporting, row.contrasting))
            if (table.label, row.name) == USI_DISPLAY_ANOMALY:
                # shown as 1.00, but 193/194 cannot round there; assert the truth
                assert display == "0.99"
            else:
                assert abs(float(display) - row.usi) <= 0.006 + 1e-12, (
                    table.label,
                    row.name,
                    display,
                )
            checked += 1
    assert checked == 40
    assert time.perf_counter() - start < 1.0


# -- criterion 2: displayed scores discriminate the logarithm base ---------


def test_criterion_2_log_base_discrimination():
    """Implied reference volumes sit above the statement sum at base 10 and
    below it at base e, for every row of both score-sorted tables; the float
    inversion is checked against a 60-digit oracle."""
    start = time.perf_counter()
    base_e = SiConfig(log_base=math.e)
    for table in (INSTITUTIONS_BY_SI, JOURNALS_BY_SI):
        for row in table.rows:
            ratio = usi_exact(row)
            statement_sum = row.supporting + row.mentioning + row.contrasting
            implied_10 = implied_references(row.si, ratio)
            implied_e = implied_references(row.si, ratio, base_e)
            with mpmath.workdps(60):
                ratio_hp = mpmath.mpf(row.supporting) / (
                    row.supporting + row.contrasting
                )
                score = mpmath.mpf(repr(row.si))
                oracle_10 = mpmath.mpf(10) ** score / ratio_hp**2
                oracle_e = mpmath.e**score / ratio_hp**2
                assert implied_10 == pytest.approx(float(oracle_10), rel=1e-9)
                assert implied_e == pytest.approx(float(oracle_e), rel=1e-9)
                assert oracle_10 > statement_sum, row.name
                assert oracle_e < statement_sum, row.name
            assert implied_10 > statement_sum > implied_e, row.name

    # the worked example pinning the base: top row of the institution table
    top = INSTITUTIONS_BY_SI.rows[0]
    assert implied_references(top.si, usi_exact(top)) == pytest.approx(
        2138824.645753033, rel=1e-12
    )
    assert top.supporting + top.mentioning + top.contrasting == 1_027_797
    assert time.perf_counter() - start < 1.0


# -- criterion 3: published row order under the reconstruction -------------


@pytest.mark.parametrize("table", ALL_TABLES, ids=[t.label for t in ALL_TABLES])
def test_criterion_3_ranking_order_reproduction(table, tmp_path, capsys):
    """Exact published order from reconstructed stores, through the CLI.

    The two-decimal published values do not carry enough information to
    recover the original sort keys everywhere: reconstruction noise flips
    adjacent display-tied pairs in both score-sorted tables, and the
    ratio-sorted institution table contradicts an exact-ratio descending
    sort outright.  Those three cases are expected to fail; the ratio-sorted
    journal table passes.
    """
    store_path = tmp_path / "store.jsonl"
    store_path.write_text(dump_store(snapshot_store(table)), encoding="utf-8")
    start = time.perf_counter()
    code = main(["rank", str(store_path), "--by", table.metric, "--format", "csv"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    got = [entry["id"] for entry in csv.DictReader(io.StringIO(out))]
    assert elapsed < 1.0
    assert got == [row.name for row in table.rows]


# -- criteria 4 and 5: synthetic corpus vs the reference model, determinism --


def synthetic_corpus(seed=20240822):
    rng = random.Random(seed)
    journals = [f"J{i:02d}" for i in range(10)]
    fields = [f"F{i}" for i in range(5)]
    institutions = [f"I{i:02d}" for i in range(20)]
    pubs, affils = [], []
    for i in range(50):
        pub_id = f"W{i:03d}"
        pubs.append(
            PublicationRecord(
                pub_id,
                journals[rng.randrange(10)] if rng.random() > 0.06 else None,
                fields[rng.randrange(5)] if rng.random() > 0.08 else None,
                rng.randint(1500, 2024) if rng.random() > 0.1 else None,
            )
        )
        if rng.random() < 0.9:
            affils.append(
                AffiliationRecord(
                    pub_id, frozenset(rng.sample(institutions, rng.randint(1, 3)))
                )
            )
    cited_pool = [pub.id for pub in pubs] + ["W900", "W901"]  # some unresolvable
    stances = ("supporting", "mentioning", "contrasting")
    statements = [
        StatementRecord(
            f"C{rng.randrange(2000)}",
            rng.choice(cited_pool),
            rng.choice((2022, 2023, 2024, 2024, 2024, 2025)),
            rng.choices(stances, (25, 60, 15))[0],
        )
        for _ in range(10_000)
    ]
    references = [
        ReferenceEvent(
            f"C{rng.randrange(400)}",
            rng.choice(cited_pool),
            rng.choice((2023, 2024, 2024, 2024, 2025)),
        )
        for _ in range(10_000)
    ]
    return pubs, affils, statements, references


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus()


def test_criterion_4_aggregation_matches_naive_oracle(corpus):
    pubs, affils, statements, references = corpus
    start = time.perf_counter()
    tables = build_link_tables(pubs, affils)
    for kind in ENTITY_KINDS:
        store = build_store(statements, references, tables, WINDOW, kind)
        got = {key: tuple(tally._asdict().values()) for key, tally in store.tallies.items()}
        expected, _ = reference.fold(pubs, affils, statements, references, (2024, 2024), kind)
        assert got == expected, kind
    assert time.perf_counter() - start < 5.0


def test_criterion_5_input_order_independence(corpus):
    pubs, affils, statements, references = corpus
    tables = build_link_tables(pubs, affils)
    rng = random.Random(417)
    reference_bytes = dump_store(
        build_store(statements, references, tables, WINDOW, "institution")
    )
    for shuffle in range(5):
        shuffled_statements = statements[:]
        shuffled_events = references[:]
        rng.shuffle(shuffled_statements)
        rng.shuffle(shuffled_events)
        store = build_store(
            shuffled_statements, shuffled_events, tables, WINDOW, "institution"
        )
        assert dump_store(store) == reference_bytes, f"shuffle {shuffle}"


# -- criterion 6: the window restricts citing years only -------------------


def test_criterion_6_window_semantics():
    pubs = [PublicationRecord(f"W{year}", journal_id=f"J{year}") for year in (1500, 1999, 2024)]
    tables = build_link_tables(pubs, [])
    statements, references = [], []
    for citing_year in (2023, 2024, 2025):
        for cited_year in (1500, 1999, 2024):
            for stance in ("supporting", "mentioning", "contrasting"):
                statements.append(
                    StatementRecord(f"C{citing_year}", f"W{cited_year}", citing_year, stance)
                )
            references.append(
                ReferenceEvent(f"C{citing_year}", f"W{cited_year}", citing_year)
            )
    store = build_store(statements, references, tables, Window(2024, 2024), "journal")

    # every cited age survives: a 1500 publication cited in 2024 counts fully
    assert set(store.tallies) == {
        EntityKey("journal", f"J{year}") for year in (1500, 1999, 2024)
    }
    for tally in store.tallies.values():
        assert (tally.supporting, tally.mentioning, tally.contrasting) == (1, 1, 1)
        assert tally.references == 1

    diag = store.diagnostics
    assert diag.statements_seen == 27
    assert diag.statements_counted == 9
    assert diag.statements_out_of_window == 18  # exactly the 2023/2025 complement
    assert diag.statements_unresolved == 0
    assert diag.events_seen == 9
    assert diag.events_counted == 3
    assert diag.events_out_of_window == 6


# -- criterion 7: metric laws ----------------------------------------------


def test_criterion_7_metric_property_suite():
    rng = random.Random(1729)

    # scaling law: multiplying references by k shifts the score by log10(k)
    for _ in range(1000):
        k = rng.randint(2, 1000)
        references = rng.randint(1, 10**7)
        ratio = rng.uniform(1e-6, 1.0)
        gap = si(k * references, ratio) - si(references, ratio)
        assert abs(gap - math.log10(k)) <= 1e-12

    # strict monotonicity in both arguments
    for _ in range(10_000):
        ratio = rng.uniform(1e-6, 1.0)
        low = rng.randint(1, 10**9)
        high = low + rng.randint(1, 10**9)
        assert si(high, ratio) > si(low, ratio)
        references = rng.randint(1, 10**9)
        ratio_low = rng.uniform(1e-6, 0.5)
        ratio_high = ratio_low + rng.uniform(1e-6, 0.5)
        assert si(references, ratio_high) > si(references, ratio_low)

    # support ratio always lands in [0, 1]
    for _ in range(1000):
        value = usi(rng.randint(0, 10**6), rng.randint(0, 10**6))
        assert value is None or 0.0 <= value <= 1.0

    # inversion round-trip
    for _ in range(1000):
        target = rng.uniform(-5.0, 9.0)
        ratio = rng.uniform(1e-6, 1.0)
        recovered = si(implied_references(target, ratio), ratio)
        assert recovered == pytest.approx(target, rel=1e-9, abs=1e-9)


# -- criterion 8: supporting h-index vs brute force ------------------------


def brute_hs(counts):
    values = np.asarray(counts, dtype=np.int64)
    at_least = (values[None, :] >= np.arange(len(counts) + 1)[:, None]).sum(axis=1)
    return max(h for h in range(len(counts) + 1) if at_least[h] >= h)


def multiset_rows(top, max_length):
    """Every multiset of 1..max_length values in 0..top, one uint8 array per
    length: each row holds one multiset in nondecreasing order, and the rows
    are in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.uint8)
    for _ in range(max_length):
        # each row r spawns r + [v] for v from r's last value up to top
        last = rows[:, -1] if rows.shape[1] else np.zeros(1, dtype=np.uint8)
        reps = top + 1 - last.astype(np.intp)
        step = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        new = (np.repeat(last, reps) + step).astype(np.uint8)
        rows = np.hstack([np.repeat(rows, reps, axis=0), new[:, None]])
        yield rows


def test_criterion_8_hs_index_exhaustive():
    """Exhaustive over every multiset of up to 12 counts valued up to 12
    (order cannot matter and is asserted separately), plus 1,000 random
    larger instances."""
    start = time.perf_counter()
    assert hs_index(()) == 0
    total = 1
    for rows in multiset_rows(12, 12):
        length = rows.shape[1]
        # the rows are every multiset of this size: values in 0..12, each row
        # nondecreasing, strictly increasing as base-13 numbers, C(12 + L, L)
        assert len(rows) == math.comb(12 + length, length)
        assert rows.max() <= 12 and np.all(rows[:, 1:] >= rows[:, :-1])
        code = np.zeros(len(rows), dtype=np.int64)
        for column in rows.T:
            code = code * 13 + column
        assert np.all(np.diff(code) > 0)
        total += len(rows)
        for lo in range(0, len(rows), 400_000):
            columns = np.ascontiguousarray(rows[lo : lo + 400_000].T)
            n = columns.shape[1]
            # zip over the columns' bytes hands hs_index one tuple of ints per
            # multiset without converting each value through numpy
            chunk = zip(*map(bytes, columns))
            mine = np.fromiter(map(hs_index, chunk), dtype=np.int8, count=n)
            oracle = np.zeros(n, dtype=np.int8)
            for h in range(1, length + 1):
                at_least = np.zeros(n, dtype=np.uint8)
                for column in columns:
                    at_least += column >= h
                oracle[at_least >= h] = h
            assert np.array_equal(mine, oracle), f"length {length}"
    assert total == 5_200_300  # multisets of size <= 12 over values 0..12

    rng = random.Random(31)
    for _ in range(1000):
        counts = [rng.randint(0, 500) for _ in range(rng.randint(13, 200))]
        shuffled = counts[:]
        rng.shuffle(shuffled)
        expected = brute_hs(counts)
        assert hs_index(counts) == expected
        assert hs_index(shuffled) == expected
    assert time.perf_counter() - start < 10.0


# -- criterion 9: correlation against a reference implementation -----------


def test_criterion_9_pearson_matches_reference():
    from scipy import stats

    rng = random.Random(2718)
    for _ in range(100):
        n = rng.randint(3, 200)
        xs = [rng.uniform(-1000, 1000) for _ in range(n)]
        slope = rng.uniform(-3, 3)
        ys = [slope * x + rng.uniform(-500, 500) for x in xs]
        result = stats.pearsonr(xs, ys)
        expected = getattr(result, "statistic", result[0])
        assert pearson(list(zip(xs, ys))) == pytest.approx(expected, abs=1e-9)

    # exact self-correlation through the public correlate path
    rng2 = random.Random(99)
    store = Store(
        {
            EntityKey("journal", f"J{i}"): EntityTally(
                rng2.randint(1, 500), 0, rng2.randint(1, 50), rng2.randint(1, 10**6)
            )
            for i in range(60)
        },
    )
    rows, _ = rank_entities(store, RankSpec(metric="usi"))
    external = {row.entity.id: row.usi_exact for row in rows}
    result = correlate(store, external, metric="usi")
    assert abs(result.r - 1.0) <= 1e-12
    assert result.matched == 60


# -- criterion 10: golden CLI tables and the exit-code contract ------------


@pytest.mark.parametrize(
    "table,golden_name",
    [
        (INSTITUTIONS_BY_SI, "institutions_by_si.md"),
        (JOURNALS_BY_SI, "journals_by_si.md"),
    ],
    ids=["institutions", "journals"],
)
def test_criterion_10_golden_markdown(table, golden_name, tmp_path, capsys):
    store_path = tmp_path / "store.jsonl"
    store_path.write_text(dump_store(snapshot_store(table)), encoding="utf-8")
    out_path = tmp_path / "table.md"
    code = main(
        ["rank", str(store_path), "--by", "si", "--format", "md", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN_DIR / golden_name).read_bytes()


@pytest.mark.parametrize(
    "table,golden_stem,metric",
    [
        (INSTITUTIONS_BY_SI, "institutions_by_si", "si"),
        (JOURNALS_BY_SI, "journals_by_si", "si"),
        (INSTITUTIONS_BY_USI, "institutions_by_usi", "usi"),  # holds a non-ASCII name
    ],
    ids=["institutions", "journals", "institutions_by_usi"],
)
def test_criterion_10_golden_store_csv_and_json(table, golden_stem, metric, tmp_path, capsys):
    store_path = tmp_path / "store.jsonl"
    store_path.write_text(dump_store(snapshot_store(table)), encoding="utf-8")
    assert store_path.read_bytes() == (GOLDEN_DIR / f"{golden_stem}.store.jsonl").read_bytes()
    for fmt in ("csv", "json"):
        out_path = tmp_path / f"table.{fmt}"
        code = main(
            ["rank", str(store_path), "--by", metric, "--format", fmt, "--out", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN_DIR / f"{golden_stem}.{fmt}").read_bytes()


def test_criterion_10_exit_codes(tmp_path, capsys):
    statements = tmp_path / "statements.jsonl"
    statements.write_text(
        '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}\n',
        encoding="utf-8",
    )
    references = tmp_path / "references.jsonl"
    references.write_text(
        '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024}\n', encoding="utf-8"
    )
    pubs = tmp_path / "pubs.jsonl"
    pubs.write_text('{"id": "W1", "journal_id": "J1"}\n', encoding="utf-8")
    affils = tmp_path / "affiliations.jsonl"
    affils.write_text('{"pub_id": "W1", "institution_ids": ["I1"]}\n', encoding="utf-8")

    def aggregate(statements_path, out_path):
        return main(
            [
                "aggregate",
                "--statements", str(statements_path),
                "--references", str(references),
                "--pubs", str(pubs),
                "--affiliations", str(affils),
                "--entity", "journal",
                "--out", str(out_path),
            ]
        )

    # 0: clean run
    store_path = tmp_path / "store.jsonl"
    assert aggregate(statements, store_path) == 0

    # 1: usage error (missing required flag)
    assert main(["aggregate", "--statements", str(statements)]) == 1

    # 2: data error (bad line in strict mode)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert aggregate(bad, tmp_path / "ignored.jsonl") == 2

    # 3: I/O error (output directory does not exist)
    assert aggregate(statements, tmp_path / "missing_dir" / "store.jsonl") == 3
    capsys.readouterr()


# -- criterion 11: throughput smoke (soft) ---------------------------------


def test_criterion_11_throughput_smoke(tmp_path):
    """Soft bound: one million statement lines through lenient streaming
    ingest and aggregation."""
    path = tmp_path / "big_statements.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(1_000_000):
            handle.write(
                '{"citing_id":"C%d","cited_id":"W%03d","citing_year":2024,"class":"mentioning"}\n'
                % (i % 50_000, i % 50)
            )
    pubs = [PublicationRecord(f"W{i:03d}", journal_id=f"J{i % 10:02d}") for i in range(50)]
    tables = build_link_tables(pubs, [])

    start = time.perf_counter()
    report = SkipReport()
    store = build_store(
        stream(str(path), parse_statement, "lenient", report),
        [],
        tables,
        WINDOW,
        "journal",
    )
    elapsed = time.perf_counter() - start

    assert report.skipped == 0
    assert store.diagnostics.statements_counted == 1_000_000
    assert sum(t.mentioning for t in store.tallies.values()) == 1_000_000
    assert elapsed < 30.0
