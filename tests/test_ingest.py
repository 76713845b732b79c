import json
import tracemalloc
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank.errors import ConfigError, ParseError
from citerank.ingest import (
    MIN_YEAR,
    STANCE_CLASSES,
    _MAX_YEAR,
    AffiliationRecord,
    PublicationRecord,
    ReferenceEvent,
    SkipReport,
    StatementRecord,
    dump_affiliation,
    dump_publication,
    dump_reference,
    dump_statement,
    parse_affiliation,
    parse_publication,
    parse_reference,
    parse_statement,
    stream,
)

ids = st.text(min_size=1, max_size=30)
years = st.integers(MIN_YEAR, _MAX_YEAR)


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
        assert parse_statement(template.format(_MAX_YEAR)).citing_year == _MAX_YEAR
        with pytest.raises(ParseError):
            parse_statement(template.format(MIN_YEAR - 1))
        with pytest.raises(ParseError):
            parse_statement(template.format(_MAX_YEAR + 1))


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
            '{"id": "W1", "journal_id": "J\\ud800"}',
            '{"id": "W1", "field": "F\\udfff"}',
        ],
    )
    def test_defects(self, line):
        with pytest.raises(ParseError):
            parse_publication(line)

    def test_escaped_surrogate_pair_is_one_character(self):
        rec = parse_publication('{"id": "W1", "journal_id": "J\\ud83d\\ude00"}')
        assert rec.journal_id == "J\U0001f600"


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
            '{"pub_id": "W1", "institution_ids": ["I1", "I\\ud800"]}',
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


# -- dumps against the standard library's encoder ------------------------------

# lone surrogates included: a dump never checks what it writes
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
    ]
)
dump_ints = st.integers(-(10**30), 10**30)


def oracle_dumps(obj):
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


class TestDumpsMatchJsonDumps:
    @given(dump_texts, dump_texts, dump_ints, st.sampled_from(STANCE_CLASSES))
    def test_statement(self, citing, cited, year, stance):
        expected = oracle_dumps(
            {"citing_id": citing, "cited_id": cited, "citing_year": year, "class": stance}
        )
        assert dump_statement(StatementRecord(citing, cited, year, stance)) == expected

    @given(dump_texts, dump_texts, dump_ints)
    def test_reference(self, citing, cited, year):
        expected = oracle_dumps({"citing_id": citing, "cited_id": cited, "citing_year": year})
        assert dump_reference(ReferenceEvent(citing, cited, year)) == expected

    @given(dump_texts, st.none() | dump_texts, st.none() | dump_texts, st.none() | dump_ints)
    def test_publication(self, pub, journal, field, year):
        obj = {"id": pub, "journal_id": journal, "field": field, "year": year}
        expected = oracle_dumps({key: value for key, value in obj.items() if value is not None})
        assert dump_publication(PublicationRecord(pub, journal, field, year)) == expected

    @given(dump_texts, st.frozensets(dump_texts, max_size=5))
    def test_affiliation(self, pub, institutions):
        expected = oracle_dumps({"pub_id": pub, "institution_ids": sorted(institutions)})
        assert dump_affiliation(AffiliationRecord(pub, institutions)) == expected


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
        assert asdict(report) == {"skipped": 3, "first_bad_line": 2}

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
        assert asdict(report) == {"skipped": 1, "first_bad_line": 4}

    def test_invalid_utf8_line_is_a_bad_line(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(GOOD.encode() + b"\r\n" + b'{"citing_id": "\xff"}\r\n' + GOOD.encode())
        report = SkipReport()
        records = list(stream(str(path), parse_statement, "lenient", report))
        assert len(records) == 2
        assert asdict(report) == {"skipped": 1, "first_bad_line": 2}
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
        assert str(err.value).startswith(f"{path}:{bad_at + 1}: ")

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
        assert asdict(SkipReport()) == {"skipped": 0, "first_bad_line": None}

    def test_json_serializable(self):
        report = SkipReport()
        report.record_skip(7)
        assert json.loads(json.dumps(asdict(report))) == {
            "skipped": 1,
            "first_bad_line": 7,
        }


# -- differential check of the statement and reference parsers -------------
#
# The oracle spells out the specification literally: json.loads, then each
# key checked in schema order with isinstance.  The parsers must agree with
# it on every line: the same record, or a ParseError with the same message.


def _oracle_object(line):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _oracle_str(obj, key):
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, str) or value == "":
        raise ParseError(f"key {key!r} must be a nonempty string, got {value!r}")
    return value


def _oracle_year(obj, key):
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"key {key!r} must be an integer year, got {value!r}")
    if not MIN_YEAR <= value <= _MAX_YEAR:
        raise ParseError(
            f"key {key!r} year {value} outside plausible range [{MIN_YEAR}, {_MAX_YEAR}]"
        )
    return value


def oracle_statement(line):
    obj = _oracle_object(line)
    stance = _oracle_str(obj, "class")
    if stance not in STANCE_CLASSES:
        raise ParseError(
            f"key 'class' must be one of {', '.join(STANCE_CLASSES)}, got {stance!r}"
        )
    return StatementRecord(
        citing_id=_oracle_str(obj, "citing_id"),
        cited_id=_oracle_str(obj, "cited_id"),
        citing_year=_oracle_year(obj, "citing_year"),
        stance=stance,
    )


def oracle_reference(line):
    obj = _oracle_object(line)
    return ReferenceEvent(
        citing_id=_oracle_str(obj, "citing_id"),
        cited_id=_oracle_str(obj, "cited_id"),
        citing_year=_oracle_year(obj, "citing_year"),
    )


def outcome(parser, line):
    try:
        rec = parser(line)
    except ParseError as exc:
        return ("error", str(exc))
    return (type(rec).__name__, rec)


# JSON text of one value; huge integers and NaN are written out by hand
# because json.dumps will not produce them from a value
id_values = ids.map(json.dumps) | st.sampled_from(
    ['"C1"', '"W1"', '""', '"\\u00e9"', "7", "null", "[]", "{}", "true"]
)
year_values = (
    years.map(str)
    | st.integers(-10**6, 10**6).map(str)
    | st.sampled_from(
        ["true", "false", "2024.0", "2.024e3", "NaN", "Infinity", "-Infinity", "null"]
        + ['"2024"', "9" * 4301, "-" + "1" * 5000, "1" + "0" * 4300, "1e999"]
    )
)
class_values = st.sampled_from(STANCE_CLASSES).map(json.dumps) | st.sampled_from(
    ['"refuting"', '""', '"Supporting"', "null", "1", "[]"]
)
VALUES = {
    "citing_id": id_values,
    "cited_id": id_values,
    "citing_year": year_values,
    "class": class_values,
}


@st.composite
def object_lines(draw):
    """One JSON object with each known key present, absent, or repeated."""
    parts = []
    for key, values in VALUES.items():
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2]))):
            parts.append(f"{json.dumps(key)}: {draw(values)}")
    if draw(st.booleans()):
        parts.append('"confidence": 0.93')
    parts = draw(st.permutations(parts))
    return "{" + ", ".join(parts) + "}"


raw_lines = (
    object_lines()
    | st.sampled_from(["", "{", "[1, 2]", "42", '"text"', "null", "{}", "NaN", "{} {}"])
    | st.text(max_size=40)
)
decorated_lines = st.tuples(
    st.sampled_from(["", "", "", " ", "\t", "\ufeff", "\n"]),
    raw_lines,
    st.sampled_from(["", "\n", "\n", "\r\n", " ", " \n", "\r", " x", "}", ",", "\n\n", "\x00"]),
).map("".join)


class TestParsersMatchOracle:
    @settings(max_examples=400, deadline=None)
    @given(decorated_lines)
    def test_statement(self, line):
        assert outcome(parse_statement, line) == outcome(oracle_statement, line)

    @settings(max_examples=400, deadline=None)
    @given(decorated_lines)
    def test_reference(self, line):
        assert outcome(parse_reference, line) == outcome(oracle_reference, line)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(GOOD, id="plain"),
            pytest.param(GOOD + "\n", id="lf"),
            pytest.param(GOOD + "\r\n", id="crlf"),
            pytest.param(" " + GOOD, id="leading-space"),
            pytest.param(GOOD + " x\n", id="trailing-data"),
            pytest.param("\ufeff" + GOOD, id="bom"),
            pytest.param(GOOD.replace("2024", "9" * 5000), id="huge-int"),
            pytest.param(GOOD.replace("2024", "NaN"), id="nan-year"),
            pytest.param(GOOD.replace("2024", "true"), id="bool-year"),
            pytest.param(GOOD.replace("2024", "2024.0"), id="float-year"),
            pytest.param(GOOD.replace('"C1"', '""'), id="empty-id"),
            pytest.param(
                '{"cited_id": "W1", "citing_year": 2024, "class": "supporting"}', id="missing-id"
            ),
            pytest.param("[" * 100_000, id="deep-array"),
            pytest.param(GOOD.replace('"C1"', "[" * 100_000), id="deep-citing-id"),
        ],
    )
    def test_named_cases(self, line):
        assert outcome(parse_statement, line) == outcome(oracle_statement, line)
        assert outcome(parse_reference, line) == outcome(oracle_reference, line)
