import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank import aggregate, ingest
from citerank.aggregate import Diagnostics, Store, dump_store, load_store, store_line
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
from citerank.linking import EntityKey
from citerank.metrics import EntityTally

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
        assert report._asdict() == {"skipped": 3, "first_bad_line": 2}

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
        assert report._asdict() == {"skipped": 1, "first_bad_line": 4}

    def test_invalid_utf8_line_is_a_bad_line(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(GOOD.encode() + b"\r\n" + b'{"citing_id": "\xff"}\r\n' + GOOD.encode())
        report = SkipReport()
        records = list(stream(str(path), parse_statement, "lenient", report))
        assert len(records) == 2
        assert report._asdict() == {"skipped": 1, "first_bad_line": 2}
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

    @pytest.mark.parametrize(
        "line",
        [GOOD, dump_statement(StatementRecord("C1", "W1", 2024, "supporting"))],
        ids=["spaced", "canonical"],
    )
    def test_memory_constant_in_file_size(self, tmp_path, line):
        small = tmp_path / "small.jsonl"
        large = tmp_path / "large.jsonl"
        _write_lines(small, [line] * 20_000)
        _write_lines(large, [line] * 200_000)

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
        assert SkipReport()._asdict() == {"skipped": 0, "first_bad_line": None}

    def test_json_serializable(self):
        report = SkipReport()
        report.record_skip(7)
        assert json.loads(json.dumps(report._asdict())) == {
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


# -- reading the dump layout against the line-by-line loop ------------------
#
# ``stream`` may read lines in the layout ``dump_*`` writes without the JSON
# decoder.  The oracle is ``stream``'s per-line loop, copied literally: each
# line decoded from UTF-8 alone and handed to the parser.  Both must give
# the same records (with the same value types), the same strict error and
# the same lenient skip report on files that mix that layout with others.


def oracle_stream(path, parser, mode="strict", report=None):
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"invalid UTF-8: {exc.reason}") from exc
                yield parser(line)
            except ParseError as exc:
                if mode == "strict":
                    raise ParseError(f"{path}:{line_no}: {exc}") from exc
                if report is not None:
                    report.record_skip(line_no)


def read_outcome(reader, path, parser, mode):
    """(records with their value types, strict error or None, skip report)."""
    records, report = [], SkipReport()
    try:
        for rec in reader(path, parser, mode, report):
            records.append((type(rec).__name__, tuple(type(v).__name__ for v in rec), rec))
    except ParseError as exc:
        return records, str(exc), report._asdict()
    return records, None, report._asdict()


# ids the dump layout holds as they are, including JSON's structural
# characters and text json.dumps escapes only under ensure_ascii
LAYOUT_IDS = ["W1", "a[b", "{x}", "a,b", "k:v", "é", "\U0001f600", " ", "sp ace", "\x7f"]
layout_id_texts = st.one_of(
    st.tuples(st.sampled_from(LAYOUT_IDS) | st.text(min_size=1, max_size=6), st.booleans()).map(
        lambda drawn: json.dumps(drawn[0], ensure_ascii=drawn[1])
    ),
    st.sampled_from(['"a\\"b"', '"a\\\\b"', '"\\ud800"', '"\\u00e9"', '""', "7", "null"]),
)
layout_year_texts = st.sampled_from(
    [str(year) for year in (MIN_YEAR - 1, MIN_YEAR, _MAX_YEAR, _MAX_YEAR + 1)]
    + ["0999", "10000", "true", "2024.0", "null"]
) | years.map(str)
layout_class_texts = st.sampled_from([*STANCE_CLASSES, "refuting"]).map(json.dumps)
layout_id_arrays = st.lists(layout_id_texts, max_size=3).map(
    lambda items: "[" + ",".join(items) + "]"
) | st.sampled_from(["[]", '["a","a"]', '[""]', '"I1"'])

# each parser's keys in schema order: (key, JSON texts of its value, required)
LAYOUT_SCHEMAS = {
    "statement": (
        parse_statement,
        [("citing_id", layout_id_texts, True), ("cited_id", layout_id_texts, True),
         ("citing_year", layout_year_texts, True), ("class", layout_class_texts, True)],
    ),
    "reference": (
        parse_reference,
        [("citing_id", layout_id_texts, True), ("cited_id", layout_id_texts, True),
         ("citing_year", layout_year_texts, True)],
    ),
    "publication": (
        parse_publication,
        [("id", layout_id_texts, True), ("journal_id", layout_id_texts, False),
         ("field", layout_id_texts, False), ("year", layout_year_texts, False)],
    ),
    "affiliation": (
        parse_affiliation,
        [("pub_id", layout_id_texts, True), ("institution_ids", layout_id_arrays, True)],
    ),
}


@st.composite
def layout_objects(draw, schema):
    """One object: in schema order with no whitespace (the dump layout), with
    json.dumps spacing, or with its keys shuffled; keys now and then absent."""
    members = [
        (key, draw(values)) for key, values, required in schema
        if draw(st.integers(0, 9)) < (9 if required else 5)
    ]
    layout = draw(st.sampled_from(["dump", "dump", "dump", "spaced", "shuffled"]))
    if layout == "shuffled":
        members = draw(st.permutations(members))
    if layout == "spaced":
        return "{" + ", ".join(f'"{key}": {value}' for key, value in members) + "}"
    return "{" + ",".join(f'"{key}":{value}' for key, value in members) + "}"


LINE_SHAPES = {
    "plain": lambda body: body + b"\n",
    "crlf": lambda body: body + b"\r\n",
    "trailing-space": lambda body: body + b" \n",
    "bom": lambda body: b"\xef\xbb\xbf" + body + b"\n",
    "two-objects": lambda body: body + body + b"\n",
    "empty": lambda body: b"\n",
    "xff": lambda body: body[:1] + b"\xff" + body[1:] + b"\n",
    "xc3": lambda body: body + b"\xc3\n",
}


@st.composite
def layout_files(draw, schema):
    """A file's bytes: mostly plain lines, some in other shapes, and the
    last line now and then without its LF."""
    shapes = st.sampled_from(["plain"] * 10 + sorted(LINE_SHAPES))
    lines = [
        LINE_SHAPES[draw(shapes)](draw(layout_objects(schema)).encode("utf-8", "surrogatepass"))
        for _ in range(draw(st.integers(0, 40)))
    ]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\n")
    return b"".join(lines)


class TestCanonicalReadMatchesLineRead:
    @pytest.mark.parametrize("schema", sorted(LAYOUT_SCHEMAS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_records_errors_and_skips(self, tmp_path_factory, schema, data):
        parser, keys = LAYOUT_SCHEMAS[schema]
        path = tmp_path_factory.getbasetemp() / f"layout-{schema}.jsonl"
        path.write_bytes(data.draw(layout_files(keys)))
        for mode in ("strict", "lenient"):
            expected = read_outcome(oracle_stream, str(path), parser, mode)
            for block_bytes in (1, 64, 2048):
                with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                    assert read_outcome(stream, str(path), parser, mode) == expected

    @pytest.mark.parametrize(
        "case, key", [("statement", "citing_year"), ("reference", "citing_year"), ("publication", "year")]
    )
    def test_years_at_the_bounds(self, tmp_path, case, key):
        # the draws above reach a dump-layout line with a year just out of
        # range too rarely to pin the bounds every run
        parser, dump, record = CANONICAL_CASES[case]
        years = (MIN_YEAR - 1, MIN_YEAR, _MAX_YEAR, _MAX_YEAR + 1)
        path = tmp_path / "years.jsonl"
        _write_lines(path, [dump(record._replace(**{key: year})) for year in years])
        for mode in ("strict", "lenient"):
            outcome = read_outcome(stream, str(path), parser, mode)
            assert outcome == read_outcome(oracle_stream, str(path), parser, mode)
        assert [getattr(rec, key) for _, _, rec in outcome[0]] == [MIN_YEAR, _MAX_YEAR]


# one record of each type, and its parser
CANONICAL_CASES = {
    "statement": (parse_statement, dump_statement, StatementRecord("C1", "W1", 2024, "mentioning")),
    "reference": (parse_reference, dump_reference, ReferenceEvent("C1", "W1", 2024)),
    "publication": (parse_publication, dump_publication, PublicationRecord("W1", "J1", None, 1999)),
    "affiliation": (
        parse_affiliation, dump_affiliation, AffiliationRecord("W1", frozenset({"I1", "I2"}))
    ),
}


class TestCanonicalReadGuards:
    """The canonical layout is read without the JSON decoder, and a file in
    another layout costs one block scan."""

    @pytest.mark.parametrize("others", [0, 1, 7])
    @pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
    def test_decoder_sees_only_other_lines(self, tmp_path, monkeypatch, case, others):
        parser, dump, record = CANONICAL_CASES[case]
        lines = [dump(record)] * 1_000
        spaced = json.dumps(json.loads(lines[0]))
        for n in range(others):
            lines[n * 131] = spaced
        path = tmp_path / "canonical.jsonl"
        _write_lines(path, lines)
        calls = []

        def decode_line(line):
            calls.append(line)
            return decode(line)

        decode = ingest.decode_line
        monkeypatch.setattr(ingest, "decode_line", decode_line)
        assert list(stream(str(path), parser)) == [record] * 1_000
        assert len(calls) == others

    @pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
    def test_other_layout_is_scanned_once(self, tmp_path, monkeypatch, case):
        parser, dump, record = CANONICAL_CASES[case]
        path = tmp_path / "spaced.jsonl"
        _write_lines(path, [json.dumps(json.loads(dump(record)))] * 1_000)
        scans = []

        def read_canonical(text, count):
            scans.append(count)
            return scan(text, count)

        scan = parser.scan
        monkeypatch.setattr(parser, "scan", read_canonical)
        assert list(stream(str(path), parser)) == [record] * 1_000
        assert len(scans) == 1

    # ``stream`` yields a store's rows as (key, tally) pairs and its other
    # lines as text, so the store reader is checked through ``load_store``,
    # which decodes those lines

    @staticmethod
    def _store():
        tallies = {
            EntityKey("institution", f"I{n}", "Maths"): EntityTally(n, 1, 2, n + 3)
            for n in range(1_000)
        }
        return Store(tallies, Diagnostics(statements_seen=7))

    @pytest.mark.parametrize("others", [0, 1, 7])
    def test_store_decoder_sees_only_other_lines(self, tmp_path, monkeypatch, others):
        store = self._store()
        lines = dump_store(store).splitlines()
        for n in range(others):
            lines[n * 131] = json.dumps(json.loads(lines[n * 131]))
        path = tmp_path / "store.jsonl"
        _write_lines(path, lines)
        calls = []

        def decode_line(line):
            calls.append(line)
            return decode(line)

        decode = aggregate.decode_line
        monkeypatch.setattr(aggregate, "decode_line", decode_line)
        assert load_store(stream(str(path), store_line), str(path)) == store
        # the spaced rows, and the diagnostics row, which no row scan reads
        assert calls == [lines[n * 131] + "\n" for n in range(others)] + [lines[-1] + "\n"]

    def test_store_other_layout_is_scanned_once(self, tmp_path, monkeypatch):
        store = self._store()
        path = tmp_path / "spaced.jsonl"
        _write_lines(path, [json.dumps(json.loads(line)) for line in dump_store(store).splitlines()])
        scans = []

        def read_canonical(text, count):
            scans.append(count)
            return scan(text, count)

        scan = store_line.scan
        monkeypatch.setattr(store_line, "scan", read_canonical)
        assert load_store(stream(str(path), store_line), str(path)) == store
        assert len(scans) == 1
