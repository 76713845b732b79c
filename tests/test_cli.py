import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerank.aggregate import load_store
from citerank.cli import main
from citerank.linking import EntityKey
from citerank.rank import BREAKDOWN_CSV_HEADER

PUBS = [
    '{"id": "W1", "journal_id": "J1", "field": "Physics"}',
    '{"id": "W2", "journal_id": "J1", "field": "Maths"}',
    '{"id": "W3", "journal_id": "J2"}',
]
AFFILS = [
    '{"pub_id": "W1", "institution_ids": ["I1", "I2"]}',
    '{"pub_id": "W2", "institution_ids": ["I1"]}',
]
STATEMENTS = [
    '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}',
    '{"citing_id": "C1", "cited_id": "W2", "citing_year": 2024, "class": "supporting"}',
    '{"citing_id": "C2", "cited_id": "W1", "citing_year": 2024, "class": "contrasting"}',
    '{"citing_id": "C2", "cited_id": "W2", "citing_year": 2024, "class": "mentioning"}',
    '{"citing_id": "C3", "cited_id": "W1", "citing_year": 2023, "class": "supporting"}',
    '{"citing_id": "C3", "cited_id": "W9", "citing_year": 2024, "class": "supporting"}',
    '{"citing_id": "C4", "cited_id": "W3", "citing_year": 2024, "class": "supporting"}',
]
REFERENCES = [
    '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024}',
    '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024}',
    '{"citing_id": "C2", "cited_id": "W1", "citing_year": 2024}',
    '{"citing_id": "C1", "cited_id": "W2", "citing_year": 2024}',
    '{"citing_id": "C3", "cited_id": "W2", "citing_year": 2024}',
    '{"citing_id": "C4", "cited_id": "W3", "citing_year": 2024}',
    '{"citing_id": "C9", "cited_id": "W1", "citing_year": 2023}',
]


@pytest.fixture
def corpus(tmp_path):
    paths = {}
    for name, lines in (
        ("statements", STATEMENTS),
        ("references", REFERENCES),
        ("pubs", PUBS),
        ("affiliations", AFFILS),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths[name] = str(path)
    return paths


def aggregate_args(corpus, *extra):
    return [
        "aggregate",
        "--statements",
        corpus["statements"],
        "--references",
        corpus["references"],
        "--pubs",
        corpus["pubs"],
        "--affiliations",
        corpus["affiliations"],
        "--entity",
        "journal",
        *extra,
    ]


def stderr_events(captured):
    return [json.loads(line) for line in captured.err.splitlines() if line.startswith("{")]


class TestAggregate:
    def test_writes_store_and_diagnostics(self, corpus, tmp_path, capsys):
        out = tmp_path / "store.jsonl"
        code = main(aggregate_args(corpus, "--out", str(out)))
        assert code == 0
        with open(out, encoding="utf-8") as handle:
            store = load_store(handle)
        tally = store.tallies[EntityKey("journal", "J1")]
        assert (tally.supporting, tally.mentioning, tally.contrasting) == (2, 1, 1)
        assert tally.references == 4  # C1-W1 duplicate suppressed
        assert store.tallies[EntityKey("journal", "J2")].supporting == 1

        events = {event["event"]: event for event in stderr_events(capsys.readouterr())}
        assert events["aggregate"]["statements_seen"] == 7
        assert events["aggregate"]["statements_counted"] == 5
        assert events["aggregate"]["out_of_window"] == 2
        assert events["aggregate"]["unresolved"] == 1
        assert events["consistency"]["status"] == "ok"
        assert events["link_tables"]["publication_overwrites"] == 0

    def test_stdout_when_no_out_flag(self, corpus, capsys):
        assert main(aggregate_args(corpus)) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert json.loads(lines[-1])["kind"] == "diagnostics"

    def test_window_flags(self, corpus, capsys):
        code = main(aggregate_args(corpus, "--from-year", "2023", "--to-year", "2025"))
        assert code == 0
        events = {event["event"]: event for event in stderr_events(capsys.readouterr())}
        assert events["aggregate"]["out_of_window"] == 0

    def test_lenient_reports_skips(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad_statements.jsonl"
        bad.write_text(
            STATEMENTS[0] + "\n" + "garbage\n" + STATEMENTS[1] + "\n", encoding="utf-8"
        )
        corpus = dict(corpus, statements=str(bad))
        code = main(aggregate_args(corpus, "--mode", "lenient", "--out", str(tmp_path / "s.jsonl")))
        assert code == 0
        ingest_events = [
            event
            for event in stderr_events(capsys.readouterr())
            if event["event"] == "ingest"
        ]
        by_file = {event["file"]: event for event in ingest_events}
        assert by_file[str(bad)]["skipped"] == 1
        assert by_file[str(bad)]["first_bad_line"] == 2

    def test_consistency_warning_when_statements_exceed_references(
        self, corpus, tmp_path, capsys
    ):
        empty_refs = tmp_path / "no_refs.jsonl"
        empty_refs.write_text("", encoding="utf-8")
        corpus = dict(corpus, references=str(empty_refs))
        assert main(aggregate_args(corpus)) == 0
        events = {event["event"]: event for event in stderr_events(capsys.readouterr())}
        assert events["consistency"]["status"] == "FAILED"
        assert events["consistency"]["entities_flagged"] == 2

    def test_invalid_utf8_line(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad_statements.jsonl"
        bad.write_bytes(
            (STATEMENTS[0] + "\n").encode() + b"\xff\n" + (STATEMENTS[1] + "\n").encode()
        )
        corpus = dict(corpus, statements=str(bad))
        assert main(aggregate_args(corpus)) == 2
        assert f"{bad}:2: invalid UTF-8" in capsys.readouterr().err

        assert main(aggregate_args(corpus, "--mode", "lenient")) == 0
        events = stderr_events(capsys.readouterr())
        report = next(e for e in events if e["event"] == "ingest" and e["file"] == str(bad))
        assert (report["skipped"], report["first_bad_line"]) == (1, 2)
        aggregate = next(e for e in events if e["event"] == "aggregate")
        assert aggregate["statements_seen"] == 2


class TestRankPipeline:
    def rank(self, corpus, tmp_path, capsys, *rank_extra):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        capsys.readouterr()
        code = main(["rank", str(store_path), *rank_extra])
        return code, capsys.readouterr()

    def test_csv_output(self, corpus, tmp_path, capsys):
        code, captured = self.rank(corpus, tmp_path, capsys, "--format", "csv")
        assert code == 0
        entries = list(csv.DictReader(io.StringIO(captured.out)))
        assert [entry["id"] for entry in entries] == ["J1", "J2"]
        assert entries[0]["rank"] == "1"

    def test_usi_metric(self, corpus, tmp_path, capsys):
        code, captured = self.rank(
            corpus, tmp_path, capsys, "--by", "usi", "--format", "json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert [entry["id"] for entry in payload] == ["J2", "J1"]
        assert payload[0]["usi_exact"] == 1.0

    def test_markdown_default_format(self, corpus, tmp_path, capsys):
        code, captured = self.rank(corpus, tmp_path, capsys)
        assert code == 0
        assert captured.out.startswith("| Entity |")

    def test_exclusion_diagnostics(self, corpus, tmp_path, capsys):
        code, captured = self.rank(corpus, tmp_path, capsys, "--min-references", "2")
        assert code == 0
        events = {event["event"]: event for event in stderr_events(captured)}
        assert events["exclusions"]["below_min_references"] == 1

    def test_log_base_e(self, corpus, tmp_path, capsys):
        code, captured = self.rank(
            corpus, tmp_path, capsys, "--log-base", "e", "--format", "json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        import math

        assert payload[0]["si_exact"] == pytest.approx(
            math.log(4 * (2 / 3) ** 2), abs=1e-12
        )

    def test_top_flag(self, corpus, tmp_path, capsys):
        code, captured = self.rank(corpus, tmp_path, capsys, "--top", "1", "--format", "csv")
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(captured.out)))) == 1

    def test_kind_check_against_store(self, corpus, tmp_path, capsys):
        code, captured = self.rank(corpus, tmp_path, capsys, "--entity", "institution")
        assert code == 1
        assert "institution" in captured.err


class TestFields:
    def test_breakdown_from_grouped_store(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "grouped.jsonl"
        code = main(
            aggregate_args(
                corpus,
                "--entity",
                "institution",
                "--group-by-field",
                "--out",
                str(store_path),
            )
        )
        assert code == 0
        capsys.readouterr()
        code = main(["fields", str(store_path), "--format", "csv"])
        assert code == 0
        entries = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {(entry["institution"], entry["field"]) for entry in entries} == {
            ("I1", "Physics"),
            ("I2", "Physics"),
            ("I1", "Maths"),
        }

    def test_empty_grouped_store_gives_header_only(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "grouped.jsonl"
        args = aggregate_args(corpus, "--entity", "institution", "--group-by-field")
        # a window no statement falls in leaves only the diagnostics row
        args += ["--from-year", "1999", "--to-year", "1999", "--out", str(store_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["fields", str(store_path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [BREAKDOWN_CSV_HEADER]

    def test_plain_store_rejected(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "plain.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        assert main(["fields", str(store_path)]) == 1


class TestCorrelate:
    def test_reports_r_and_match_counts(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"id": "J1", "value": 0.5}\n{"id": "J2", "value": 0.9}\n'
            '{"id": "J404", "value": 0.1}\n',
            encoding="utf-8",
        )
        capsys.readouterr()
        code = main(["correlate", str(store_path), "--scores", str(scores), "--by", "usi"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["r"] == pytest.approx(1.0, abs=1e-12)
        assert result["matched"] == 2
        assert result["unmatched_external"] == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "9" * 400])
    def test_non_finite_score_exit_2(self, corpus, tmp_path, capsys, value):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"id": "J1", "value": 0.5}\n{"id": "J2", "value": %s}\n' % value,
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{scores}:2: key 'value' must be a finite number" in captured.err

    def test_huge_integer_score_exit_2(self, corpus, tmp_path, capsys):
        # json.loads raises a plain ValueError past 4,300 digits
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "J1", "value": %s}\n' % ("9" * 5000), encoding="utf-8")
        capsys.readouterr()
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2
        assert f"{scores}:1: invalid JSON: Exceeds the limit" in capsys.readouterr().err

    def test_invalid_utf8_scores_exit_2(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_bytes(b'{"id": "J1", "value": 0.5}\n\xff\n')
        capsys.readouterr()
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2
        assert f"{scores}: not valid UTF-8" in capsys.readouterr().err

    def test_degenerate_scores_exit_2(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "J1", "value": 0.5}\n', encoding="utf-8")
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2


class TestValidate:
    def test_clean_inputs_exit_0(self, corpus, capsys):
        code = main(
            [
                "validate",
                "--statements",
                corpus["statements"],
                "--pubs",
                corpus["pubs"],
            ]
        )
        assert code == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {report["file"] for report in reports} == {
            corpus["statements"],
            corpus["pubs"],
        }
        assert all(report["skipped"] == 0 for report in reports)

    def test_defective_input_exit_2(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("junk\n" + STATEMENTS[0] + "\n", encoding="utf-8")
        code = main(["validate", "--statements", str(bad)])
        assert code == 2
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["skipped"] == 1
        assert report["first_bad_line"] == 1

    def test_invalid_utf8_is_a_defect(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(STATEMENTS[0].encode() + b"\n\xff\xfe\n")
        assert main(["validate", "--statements", str(bad)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["records"], report["skipped"], report["first_bad_line"]) == (1, 1, 2)

    def test_huge_integer_is_a_defect(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        huge = STATEMENTS[0].replace("2024", "9" * 5000)
        bad.write_text(f"{STATEMENTS[0]}\n{huge}\n", encoding="utf-8")
        assert main(["validate", "--statements", str(bad)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["records"], report["skipped"], report["first_bad_line"]) == (1, 1, 2)

    def test_nothing_to_validate_is_usage_error(self, capsys):
        assert main(["validate"]) == 1


class TestExitCodes:
    def test_missing_required_flag_names_it(self, corpus, capsys):
        args = aggregate_args(corpus)
        index = args.index("--references")
        del args[index : index + 2]
        assert main(args) == 1
        assert "--references" in capsys.readouterr().err

    def test_nonexistent_input_path_names_flag(self, corpus, tmp_path, capsys):
        corpus = dict(corpus, statements=str(tmp_path / "absent.jsonl"))
        assert main(aggregate_args(corpus)) == 1
        assert "--statements" in capsys.readouterr().err

    def test_bad_flag_value(self, corpus, capsys):
        assert main(aggregate_args(corpus, "--mode", "sloppy")) == 1
        assert main(aggregate_args(corpus, "--from-year", "soon")) == 1

    def test_bad_log_base(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        assert main(["rank", str(store_path), "--log-base", "1"]) == 1
        assert main(["rank", str(store_path), "--log-base", "banana"]) == 1

    def test_empty_window_rejected(self, corpus, capsys):
        assert main(aggregate_args(corpus, "--from-year", "2025", "--to-year", "2024")) == 1

    def test_unknown_subcommand_and_flag(self, corpus, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err
        assert main(aggregate_args(corpus, "--bogus")) == 1

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_strict_bad_line_exit_2_names_location(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(STATEMENTS[0] + "\n" + "junk\n", encoding="utf-8")
        corpus = dict(corpus, statements=str(bad))
        assert main(aggregate_args(corpus)) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_huge_integer_line(self, corpus, tmp_path, capsys, mode):
        bad = tmp_path / "bad.jsonl"
        huge = STATEMENTS[0].replace("2024", "9" * 5000)
        bad.write_text(f"{STATEMENTS[0]}\n{huge}\n", encoding="utf-8")
        code = main(aggregate_args(dict(corpus, statements=str(bad)), "--mode", mode))
        captured = capsys.readouterr()
        if mode == "strict":
            assert code == 2
            assert f"{bad}:2: invalid JSON: Exceeds the limit" in captured.err
        else:
            assert code == 0
            ingest = [e for e in stderr_events(captured) if e.get("file") == str(bad)]
            assert ingest == [
                {"event": "ingest", "file": str(bad), "skipped": 1, "first_bad_line": 2}
            ]

    def test_huge_integer_in_store_exit_2(self, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text(
            '{"kind":"journal","id":"J1","supporting":%s,"mentioning":0,'
            '"contrasting":0,"references":0}\n{"kind":"diagnostics"}\n' % ("9" * 5000),
            encoding="utf-8",
        )
        assert main(["rank", str(store_path)]) == 2
        assert f"{store_path}:1: invalid JSON: Exceeds the limit" in capsys.readouterr().err

    def test_corrupt_store_exit_2(self, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text("not a store\n", encoding="utf-8")
        assert main(["rank", str(store_path)]) == 2

    @pytest.mark.parametrize("command", ["rank", "fields", "correlate"])
    def test_invalid_utf8_store_exit_2(self, tmp_path, capsys, command):
        store_path = tmp_path / "store.jsonl"
        store_path.write_bytes(b'{"kind":"\xff"}\n{"kind":"diagnostics"}\n')
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "J1", "value": 0.5}\n', encoding="utf-8")
        extra = ["--scores", str(scores)] if command == "correlate" else []
        assert main([command, str(store_path), *extra]) == 2
        assert f"{store_path}: not valid UTF-8" in capsys.readouterr().err

    def test_unwritable_out_exit_3(self, corpus, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(out))) == 3

    def test_directory_as_input_exit_3(self, corpus, tmp_path, capsys):
        corpus = dict(corpus, statements=str(tmp_path))
        assert main(aggregate_args(corpus)) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["rank", "--help"]) == 0


class TestConfigFile:
    def test_config_supplies_defaults(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        config = tmp_path / "citerank.conf"
        config.write_text("top = 1\nformat = csv\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["rank", str(store_path), "--config", str(config)])
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(capsys.readouterr().out)))) == 1

    def test_flag_beats_config(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        config = tmp_path / "citerank.conf"
        config.write_text("top = 1\nformat = csv\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["rank", str(store_path), "--config", str(config), "--top", "2"])
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(capsys.readouterr().out)))) == 2

    def test_env_var_config(self, corpus, tmp_path, capsys, monkeypatch):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        config = tmp_path / "citerank.conf"
        config.write_text("format = json\n", encoding="utf-8")
        monkeypatch.setenv("CITERANK_CONFIG", str(config))
        capsys.readouterr()
        assert main(["rank", str(store_path)]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), list)

    def test_shared_config_keys_for_other_commands_accepted(self, corpus, tmp_path, capsys):
        # one file may configure the whole pipeline; rank ignores aggregate keys
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        config = tmp_path / "citerank.conf"
        config.write_text("mode = lenient\nformat = csv\n# comment\n\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["rank", str(store_path), "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("kind,")

    def test_unknown_config_key_rejected(self, corpus, tmp_path, capsys):
        config = tmp_path / "citerank.conf"
        config.write_text("sharts = 4\n", encoding="utf-8")
        assert main(aggregate_args(corpus, "--config", str(config))) == 1
        assert "sharts" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, corpus, tmp_path, capsys):
        assert (
            main(aggregate_args(corpus, "--config", str(tmp_path / "absent.conf"))) == 1
        )

    def test_config_not_utf8_is_usage_error(self, corpus, tmp_path, capsys):
        config = tmp_path / "citerank.conf"
        config.write_bytes(b"format = \xff\n")
        assert main(aggregate_args(corpus, "--config", str(config))) == 1
        assert f"config file {config} is not valid UTF-8" in capsys.readouterr().err

    def test_malformed_config_line_rejected(self, corpus, tmp_path, capsys):
        config = tmp_path / "citerank.conf"
        config.write_text("just words\n", encoding="utf-8")
        assert main(aggregate_args(corpus, "--config", str(config))) == 1


# -- fuzz: mixed valid and garbage NDJSON through main() -------------------

GARBAGE = [
    b"\xff\xfe",
    b'{"citing_id": "C\xc3", "cited_id": "W1", "citing_year": 2024}',
    b'{"citing_id": "C1", "cited_id": "W1", "citing_year": NaN, "class": "supporting"}',
    b'{"citing_id": "C1", "cited_id": "W1", "citing_year": true, "class": "mentioning"}',
    b'{"citing_id": "", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}',
    b'{"id": "", "journal_id": "J1"}',
    b'{"pub_id": "", "institution_ids": ["I1"]}',
    b'{"pub_id": "W1", "institution_ids": [""]}',
    b'{"citing_id": "C1", "cited_id": "W1", "citing_year": ' + b"9" * 5000 + b"}",
    b'{"id": "W2", "year": -' + b"1" * 4400 + b"}",
    b'{"id": "W1", "journal_id": NaN}',
    b"\xef\xbb\xbf" + STATEMENTS[0].encode(),
    b"{",
    b"",
    b"[1, 2]",
    b"Infinity",
]
VALID = {
    "statements": STATEMENTS,
    "references": REFERENCES,
    "pubs": PUBS,
    "affiliations": AFFILS,
}


def fuzzed_file(name):
    valid = st.sampled_from([line.encode() for line in VALID[name]])
    garbage = st.sampled_from(GARBAGE) | st.binary(max_size=30).map(
        lambda raw: raw.replace(b"\n", b"")
    )
    return st.lists(valid | garbage, max_size=12)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        st.fixed_dictionaries({name: fuzzed_file(name) for name in VALID}),
        st.sampled_from(["journal", "institution", "field"]),
        st.booleans(),
        st.sampled_from(["strict", "lenient"]),
    )
    def test_main_never_crashes(self, tmp_path_factory, files, kind, by_field, mode):
        base = tmp_path_factory.mktemp("fuzz")
        paths = {}
        for name, lines in files.items():
            path = base / f"{name}.jsonl"
            path.write_bytes(b"".join(line + b"\n" for line in lines))
            paths[name] = str(path)
        args = aggregate_args(paths, "--mode", mode, "--out", str(base / "store.jsonl"))
        args[args.index("--entity") + 1] = kind
        if by_field:
            args.append("--group-by-field")
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(args)
        assert code in (0, 1, 2, 3)
        if mode == "lenient":
            assert code == 0, err.getvalue()
            events = [json.loads(line) for line in err.getvalue().splitlines()]
            skipped = {e["file"]: e["skipped"] for e in events if e["event"] == "ingest"}
            aggregate = next(e for e in events if e["event"] == "aggregate")
            for name, seen in (("statements", "statements_seen"), ("references", "events_seen")):
                assert aggregate[seen] + skipped[paths[name]] == len(files[name])

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["validate", *[f"--{name}={path}" for name, path in paths.items()]])
        assert code in (0, 2)
        for report in map(json.loads, out.getvalue().splitlines()):
            name = next(n for n, p in paths.items() if p == report["file"])
            assert report["records"] + report["skipped"] == len(files[name])
