import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank.errors import ConfigError, ParseError
from citerank.ingest import (
    MIN_YEAR,
    STANCE_CLASSES,
    AffiliationRecord,
    PublicationRecord,
    ReferenceEvent,
    SkipReport,
    StatementRecord,
    dump_affiliation,
    dump_publication,
    dump_reference,
    dump_statement,
    max_year,
    parse_affiliation,
    parse_publication,
    parse_reference,
    parse_statement,
    stream,
)

ids = st.text(min_size=1, max_size=30)
years = st.integers(MIN_YEAR, max_year())


class TestParseStatement:
    def test_basic(self):
        rec = parse_statement(
            '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}'
        )
        assert rec == StatementRecord("C1", "W1", 2024, "supporting")

    def test_unknown_keys_ignored(self):
        rec = parse_statement(
            '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024,'
            ' "class": "mentioning", "confidence": 0.93}'
        )
        assert rec.stance == "mentioning"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"cited_id": "W1", "citing_year": 2024, "class": "supporting"}',
            '{"citing_id": "", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}',
            '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024, "class": "refuting"}',
            '{"citing_id": "C1", "cited_id": "W1", "citing_year": "2024", "class": "supporting"}',
            '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024.0, "class": "supporting"}',
            '{"citing_id": "C1", "cited_id": "W1", "citing_year": true, "class": "supporting"}',
            '{"citing_id": 7, "cited_id": "W1", "citing_year": 2024, "class": "supporting"}',
        ],
    )
    def test_defects(self, line):
        with pytest.raises(ParseError):
            parse_statement(line)

    def test_year_bounds(self):
        template = '{{"citing_id": "C", "cited_id": "W", "citing_year": {}, "class": "supporting"}}'
        assert parse_statement(template.format(MIN_YEAR)).citing_year == MIN_YEAR
        assert parse_statement(template.format(max_year())).citing_year == max_year()
        with pytest.raises(ParseError):
            parse_statement(template.format(MIN_YEAR - 1))
        with pytest.raises(ParseError):
            parse_statement(template.format(max_year() + 1))


class TestParsePublication:
    def test_optionals_absent(self):
        rec = parse_publication('{"id": "W1"}')
        assert rec == PublicationRecord("W1")

    def test_optionals_null_treated_absent(self):
        rec = parse_publication('{"id": "W1", "journal_id": null, "field": null}')
        assert rec.journal_id is None and rec.field is None

    def test_full(self):
        rec = parse_publication(
            '{"id": "W1", "journal_id": "J1", "field": "Maths", "year": 1999}'
        )
        assert rec == PublicationRecord("W1", "J1", "Maths", 1999)

    @pytest.mark.parametrize(
        "line",
        [
            '{"journal_id": "J1"}',
            '{"id": "W1", "journal_id": ""}',
            '{"id": "W1", "field": 3}',
            '{"id": "W1", "year": "1999"}',
            '{"id": "W1", "year": 1201}',
        ],
    )
    def test_defects(self, line):
        with pytest.raises(ParseError):
            parse_publication(line)


class TestParseAffiliation:
    def test_basic(self):
        rec = parse_affiliation('{"pub_id": "W1", "institution_ids": ["I1", "I2", "I1"]}')
        assert rec == AffiliationRecord("W1", frozenset({"I1", "I2"}))

    def test_empty_list_allowed(self):
        rec = parse_affiliation('{"pub_id": "W1", "institution_ids": []}')
        assert rec.institution_ids == frozenset()

    @pytest.mark.parametrize(
        "line",
        [
            '{"pub_id": "W1"}',
            '{"pub_id": "W1", "institution_ids": "I1"}',
            '{"pub_id": "W1", "institution_ids": ["I1", ""]}',
            '{"pub_id": "W1", "institution_ids": [1]}',
        ],
    )
    def test_defects(self, line):
        with pytest.raises(ParseError):
            parse_affiliation(line)


class TestRoundTrip:
    @given(ids, ids, years, st.sampled_from(STANCE_CLASSES))
    def test_statement(self, citing, cited, year, stance):
        rec = StatementRecord(citing, cited, year, stance)
        assert parse_statement(dump_statement(rec)) == rec

    @given(ids, ids, years)
    def test_reference(self, citing, cited, year):
        rec = ReferenceEvent(citing, cited, year)
        assert parse_reference(dump_reference(rec)) == rec

    @given(ids, st.none() | ids, st.none() | ids, st.none() | years)
    def test_publication(self, pub, journal, field, year):
        rec = PublicationRecord(pub, journal, field, year)
        assert parse_publication(dump_publication(rec)) == rec

    @given(ids, st.frozensets(ids, max_size=5))
    def test_affiliation(self, pub, institutions):
        rec = AffiliationRecord(pub, institutions)
        assert parse_affiliation(dump_affiliation(rec)) == rec


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


GOOD = '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}'
BAD = '{"citing_id": "C1"}'


class TestStream:
    def test_strict_names_file_and_line(self, tmp_path):
        path = tmp_path / "statements.jsonl"
        _write_lines(path, [GOOD, GOOD, BAD, GOOD])
        with pytest.raises(ParseError) as err:
            list(stream(str(path), parse_statement, mode="strict"))
        assert str(path) in str(err.value)
        assert ":3:" in str(err.value)

    def test_lenient_skips_and_counts(self, tmp_path):
        path = tmp_path / "statements.jsonl"
        _write_lines(path, [GOOD, BAD, "", GOOD, BAD])
        report = SkipReport()
        records = list(stream(str(path), parse_statement, mode="lenient", report=report))
        assert len(records) == 2
        assert report.skipped == 3
        assert report.first_bad_line == 2
        assert report.as_record() == {"skipped": 3, "first_bad_line": 2}

    def test_totality(self, tmp_path):
        # every line is either a record or a counted skip
        path = tmp_path / "mixed.jsonl"
        lines = [GOOD, BAD, GOOD, "{", GOOD, GOOD, BAD]
        _write_lines(path, lines)
        report = SkipReport()
        records = list(stream(str(path), parse_statement, mode="lenient", report=report))
        assert len(records) + report.skipped == len(lines)

    def test_clean_file_reports_nothing(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        _write_lines(path, [GOOD] * 5)
        report = SkipReport()
        assert len(list(stream(str(path), parse_statement, "lenient", report))) == 5
        assert report.skipped == 0
        assert report.first_bad_line is None

    def test_crlf_lines_parse(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes((GOOD + "\r\n").encode() * 3 + (BAD + "\r\n").encode())
        report = SkipReport()
        records = list(stream(str(path), parse_statement, "lenient", report))
        assert records == [StatementRecord("C1", "W1", 2024, "supporting")] * 3
        assert report.as_record() == {"skipped": 1, "first_bad_line": 4}

    def test_invalid_utf8_line_is_a_bad_line(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(GOOD.encode() + b"\r\n" + b'{"citing_id": "\xff"}\r\n' + GOOD.encode())
        report = SkipReport()
        records = list(stream(str(path), parse_statement, "lenient", report))
        assert len(records) == 2
        assert report.as_record() == {"skipped": 1, "first_bad_line": 2}
        with pytest.raises(ParseError) as err:
            list(stream(str(path), parse_statement, mode="strict"))
        assert str(err.value).startswith(f"{path}:2: invalid UTF-8")

    def test_bad_mode_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        _write_lines(path, [GOOD])
        with pytest.raises(ConfigError):
            list(stream(str(path), parse_statement, mode="fast"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            list(stream(str(tmp_path / "absent.jsonl"), parse_statement))

    @settings(deadline=None)
    @given(st.integers(0, 4))
    def test_strict_stops_at_first_bad_line(self, tmp_path_factory, bad_at):
        path = tmp_path_factory.mktemp("s") / "f.jsonl"
        lines = [GOOD] * 5
        lines[bad_at] = BAD
        _write_lines(path, lines)
        seen = []
        with pytest.raises(ParseError) as err:
            for rec in stream(str(path), parse_statement, mode="strict"):
                seen.append(rec)
        assert len(seen) == bad_at
        assert err.value.line_no == bad_at + 1

    def test_memory_constant_in_file_size(self, tmp_path):
        small = tmp_path / "small.jsonl"
        large = tmp_path / "large.jsonl"
        _write_lines(small, [GOOD] * 20_000)
        _write_lines(large, [GOOD] * 200_000)

        def peak(path):
            tracemalloc.start()
            count = sum(1 for _ in stream(str(path), parse_statement))
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return count, peak_bytes

        count_small, peak_small = peak(small)
        count_large, peak_large = peak(large)
        assert (count_small, count_large) == (20_000, 200_000)
        # 10x the lines must not mean 10x the memory; allow generous noise
        assert peak_large < peak_small * 2 + 1_000_000


class TestSkipReportRecord:
    def test_empty_report(self):
        assert SkipReport().as_record() == {"skipped": 0, "first_bad_line": None}

    def test_json_serializable(self):
        report = SkipReport()
        report.record_skip(7)
        assert json.loads(json.dumps(report.as_record())) == {
            "skipped": 1,
            "first_bad_line": 7,
        }
