import argparse
import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citerank
from citerank import cli, ingest
from citerank.aggregate import Store, dump_store, load_store
from citerank.cli import COMMANDS, OPTIONS, _to_bool, build_parser, main
from citerank.errors import ConfigError, DataError
from citerank.ingest import stream
from citerank.linking import ENTITY_KINDS, EntityKey
from citerank.metrics import EntityTally
from citerank.rank import (
    FORMATS,
    RankSpec,
    export_rows,
    rank_entities,
    require_plain_store,
)
import reference
from test_aggregate import store_texts

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
# nested past the interpreter's recursion limit, so decoding it recurses too deep
DEEP = "[" * 100_000
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

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_event_list_counts_overwrites(self, corpus, tmp_path, mode, capsys):
        # W1 appears twice in each metadata file; the repeat is the same record
        pubs = tmp_path / "repeated_pubs.jsonl"
        pubs.write_text("".join(line + "\n" for line in [*PUBS, PUBS[0]]), encoding="utf-8")
        affils = tmp_path / "repeated_affils.jsonl"
        affils.write_text("".join(line + "\n" for line in [*AFFILS, AFFILS[0]]), encoding="utf-8")
        corpus = dict(corpus, pubs=str(pubs), affiliations=str(affils))
        assert main(aggregate_args(corpus, "--mode", mode)) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        ingest = [
            {"event": "ingest", "file": corpus[name], "skipped": 0, "first_bad_line": None}
            for name in ("pubs", "affiliations", "statements", "references")
        ]
        assert events == [
            *(ingest if mode == "lenient" else []),
            {"event": "link_tables", "publication_overwrites": 1, "affiliation_overwrites": 1},
            {
                "event": "aggregate",
                "statements_seen": 7,
                "statements_counted": 5,
                "statements_out_of_window": 1,
                "statements_unresolved": 1,
                "events_seen": 7,
                "events_counted": 5,
                "events_out_of_window": 1,
                "events_unresolved": 0,
                "events_duplicate": 1,
                "out_of_window": 2,
                "unresolved": 1,
            },
            {"event": "consistency", "entities_flagged": 0, "status": "ok"},
        ]

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

    def test_per_field_store_exit_1(self, corpus, tmp_path, capsys):
        # I1 in Maths and I1 in Physics would be ranked twice, with no field column
        store_path = tmp_path / "grouped.jsonl"
        args = aggregate_args(corpus, "--entity", "institution", "--group-by-field")
        assert main([*args, "--out", str(store_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "table.csv"
        assert main(["rank", str(store_path), "--format", "csv", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: store has per-field grouping; rank needs a plain store" in captured.err
        assert not out.exists()


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
        assert capsys.readouterr().out == reference.breakdown_table([], "csv")

    def test_plain_store_rejected(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "plain.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        assert main(["fields", str(store_path)]) == 1

    @pytest.mark.parametrize("kind", ["journal", "field"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_journal_or_field_store_rejected(self, tmp_path, capsys, kind, fmt):
        # aggregate writes no such store, so this one is written by hand
        store_path = tmp_path / "grouped.jsonl"
        tallies = {EntityKey(kind, "X1", "Physics"): EntityTally(2, 0, 1, 10)}
        store_path.write_text(dump_store(Store(tallies)), encoding="utf-8")
        assert main(["fields", str(store_path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {store_path}:1: per-field rows need kind 'institution', got {kind!r}\n"
        )


class TestEveryStoreHasAReader:
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("by_field", [False, True])
    @pytest.mark.parametrize("kind", ["journal", "institution", "field"])
    def test_written_store_is_read_or_nothing_is_written(
        self, corpus, tmp_path, capsys, kind, by_field, mode
    ):
        store_path = tmp_path / "store.jsonl"
        args = aggregate_args(corpus, "--mode", mode, "--out", str(store_path))
        args[args.index("--entity") + 1] = kind
        if by_field:
            args.append("--group-by-field")
        code = main(args)
        captured = capsys.readouterr()
        if by_field and kind != "institution":
            assert (code, captured.out) == (1, "")
            expected = f"error: per-field grouping needs kind 'institution', got {kind!r}\n"
            assert captured.err == expected
            assert not store_path.exists()
            return
        assert code == 0
        scores = tmp_path / "scores.jsonl"
        store = load_store(io.StringIO(store_path.read_text(encoding="utf-8")))
        ids = sorted({key.id for key in store.tallies})
        scores.write_text(
            "".join(json.dumps({"id": name, "value": n}) + "\n" for n, name in enumerate(ids)),
            encoding="utf-8",
        )
        codes = {}
        for reader in ("rank", "fields", "correlate"):
            extra = ["--scores", str(scores)] if reader == "correlate" else []
            out = tmp_path / f"{reader}.out"
            codes[reader] = main([reader, str(store_path), *extra, "--out", str(out)])
        capsys.readouterr()
        assert 0 in codes.values(), codes


class TestOutFile:
    @pytest.fixture
    def stores(self, corpus, tmp_path, capsys):
        """An institution store for each command, plain for rank and
        per-field for fields, from a corpus in which W1 also credits I3 so
        that each table has at least three rows."""
        affiliations = tmp_path / "affiliations_i3.jsonl"
        affiliations.write_text(
            AFFILS[0].replace('"I2"', '"I2", "I3"') + "\n" + AFFILS[1] + "\n", encoding="utf-8"
        )
        args = aggregate_args(dict(corpus, affiliations=str(affiliations)), "--entity", "institution")
        paths = {"rank": tmp_path / "plain.jsonl", "fields": tmp_path / "grouped.jsonl"}
        assert main([*args, "--out", str(paths["rank"])]) == 0
        assert main([*args, "--group-by-field", "--out", str(paths["fields"])]) == 0
        capsys.readouterr()
        return paths

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_out_file_holds_the_stdout_bytes(self, stores, tmp_path, capsys, command, fmt):
        args = [command, str(stores[command]), "--format", fmt]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("\n") > 3
        out = tmp_path / f"table.{fmt}"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode("utf-8")

    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_out_may_be_the_store_itself(self, stores, capsys, command):
        # the store is read whole before --out is opened
        store = stores[command]
        args = [command, str(store), "--format", "csv"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert main([*args, "--out", str(store)]) == 0
        assert store.read_bytes() == stdout.encode("utf-8")


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

    def test_deep_nesting_score_exit_2(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "J1", "value": 0.5}\n' + DEEP + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2
        assert f"{scores}:2: invalid JSON: nested too deeply" in capsys.readouterr().err

    def test_invalid_utf8_scores_exit_2(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_bytes(b'{"id": "J1", "value": 0.5}\n\xff\n')
        capsys.readouterr()
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2
        assert f"{scores}:2: invalid UTF-8" in capsys.readouterr().err

    def test_repeated_id_exit_2_names_both_lines(self, tmp_path, capsys):
        # keeping the last J2 would give r = 1.0 over two matches
        tallies = {
            EntityKey("journal", name): EntityTally(supporting, 0, 1, 10)
            for name, supporting in (("J1", 1), ("J2", 2), ("J3", 3))
        }
        store_path = tmp_path / "store.jsonl"
        store_path.write_text(dump_store(Store(tallies)), encoding="utf-8")
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"id": "J1", "value": 1}\n{"id": "J2", "value": 2}\n{"id": "J2", "value": 0}\n',
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        args = ["correlate", str(store_path), "--scores", str(scores), "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {scores}:3: duplicate id 'J2', first on line 2" in captured.err
        assert not out.exists()

    def test_degenerate_scores_exit_2(self, corpus, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "J1", "value": 0.5}\n', encoding="utf-8")
        assert main(["correlate", str(store_path), "--scores", str(scores)]) == 2

    def test_per_field_store_exit_1(self, tmp_path, capsys):
        # each institution would be matched once per field
        store_path = tmp_path / "grouped.jsonl"
        tallies = {
            EntityKey("institution", "I1", "Maths"): EntityTally(1, 0, 1, 10),
            EntityKey("institution", "I1", "Physics"): EntityTally(2, 0, 1, 10),
            EntityKey("institution", "I2", "Maths"): EntityTally(3, 0, 1, 10),
            EntityKey("institution", "I2", "Physics"): EntityTally(4, 0, 1, 10),
        }
        store_path.write_text(dump_store(Store(tallies)), encoding="utf-8")
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"id": "I1", "value": 1.0}\n{"id": "I2", "value": 2.0}\n', encoding="utf-8"
        )
        out = tmp_path / "r.json"
        args = ["correlate", str(store_path), "--scores", str(scores), "--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: store has per-field grouping" in captured.err
        assert not out.exists()


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

    def test_deep_nesting_is_a_defect(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{STATEMENTS[0]}\n{DEEP}\n", encoding="utf-8")
        assert main(["validate", "--statements", str(bad)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["records"], report["skipped"], report["first_bad_line"]) == (1, 1, 2)

    def test_nothing_to_validate_is_usage_error(self, capsys):
        assert main(["validate"]) == 1

    def test_missing_later_file_prints_no_row(self, corpus, tmp_path, capsys):
        # every path is checked before the first file is read
        absent = tmp_path / "absent.jsonl"
        args = ["validate", "--statements", corpus["statements"], "--pubs", str(absent)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --pubs: no such path: {absent}\n"


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

    @pytest.mark.parametrize(
        "flag,value", [("--exponent", "inf"), ("--exponent", "1e999"), ("--log-base", "inf")]
    )
    def test_non_finite_score_config_rejected(self, corpus, tmp_path, capsys, flag, value):
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        capsys.readouterr()
        assert main(["rank", str(store_path), flag, value]) == 1
        assert f"bad value for {flag}: must be finite, got inf" in capsys.readouterr().err

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

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_deep_nesting_line(self, corpus, tmp_path, capsys, mode):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{STATEMENTS[0]}\n{DEEP}\n", encoding="utf-8")
        code = main(aggregate_args(dict(corpus, statements=str(bad)), "--mode", mode))
        captured = capsys.readouterr()
        if mode == "strict":
            assert code == 2
            assert f"{bad}:2: invalid JSON: nested too deeply" in captured.err
        else:
            assert code == 0
            ingest = [e for e in stderr_events(captured) if e.get("file") == str(bad)]
            assert ingest == [
                {"event": "ingest", "file": str(bad), "skipped": 1, "first_bad_line": 2}
            ]

    def test_deep_nesting_in_store_exit_2(self, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text(DEEP + "\n", encoding="utf-8")
        assert main(["rank", str(store_path)]) == 2
        assert f"{store_path}:1: invalid JSON: nested too deeply" in capsys.readouterr().err

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
        assert f"{store_path}:1: invalid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_mixed_per_field_and_plain_store_exit_2(self, tmp_path, capsys, command):
        # I1 plain and I1 in Physics would be ranked twice
        tallies = {
            EntityKey("institution", "I1"): EntityTally(3, 0, 1, 10),
            EntityKey("institution", "I1", "Physics"): EntityTally(1, 0, 1, 10),
        }
        store_path = tmp_path / "mixed.jsonl"
        store_path.write_text(dump_store(Store(tallies)), encoding="utf-8")
        out = tmp_path / "table.csv"
        out.write_bytes(b"an earlier table\n")
        assert main([command, str(store_path), "--format", "csv", "--out", str(out)]) == 2
        assert out.read_bytes() == b"an earlier table\n"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {store_path}:2: mixed per-field and plain rows" in captured.err

    def test_unwritable_out_exit_3(self, corpus, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(out))) == 3

    def test_directory_as_input_exit_3(self, corpus, tmp_path, capsys):
        corpus = dict(corpus, statements=str(tmp_path))
        assert main(aggregate_args(corpus)) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["rank", "--help"]) == 0


class TestParser:
    """The parser is built from COMMANDS and OPTIONS alone."""

    def subcommands(self):
        parser = build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action

    def test_subcommands_in_table_order_with_their_help(self):
        action = self.subcommands()
        assert list(action.choices) == list(COMMANDS)
        helps = [help_text for _, help_text, _, _ in COMMANDS.values()]
        assert [a.help for a in action._choices_actions] == helps

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_options_and_store_positional(self, command):
        _, _, reads_store, option_names = COMMANDS[command]
        sub = self.subcommands().choices[command]
        flags = [flag for a in sub._actions for flag in a.option_strings if flag.startswith("--")]
        assert flags == ["--help", *(f"--{name}" for name in option_names), "--config"]
        positionals = [a.dest for a in sub._actions if not a.option_strings]
        assert positionals == (["store"] if reads_store else [])


class TestExtremeScores:
    @pytest.fixture
    def stores(self, tmp_path):
        """The same two tallies as a plain store for rank and in one field
        for fields; A's usi is 0.001, whose log times 1e308 leaves the float
        range."""
        counts = {"A": EntityTally(1, 0, 999, 1000), "B": EntityTally(5, 1, 5, 40)}
        paths = {}
        for command, label in (("rank", None), ("fields", "Physics")):
            tallies = {EntityKey("institution", name, label): tally for name, tally in counts.items()}
            path = tmp_path / f"{command}.store.jsonl"
            path.write_text(dump_store(Store(tallies)), encoding="utf-8")
            paths[command] = str(path)
        return paths

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_scores_past_28_digits_display(self, stores, capsys, fmt):
        assert main(["rank", stores["rank"], "--exponent", "1e30", "--format", fmt]) == 0
        assert "30102999566398" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_infinite_score_exit_2(self, stores, capsys, command, fmt):
        assert main([command, stores[command], "--exponent", "1e308", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: si is not finite (-inf)" in captured.err

    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_failed_run_leaves_out_untouched(self, stores, tmp_path, capsys, command):
        out = tmp_path / "table.out"
        args = [command, stores[command], "--exponent", "1e308", "--out", str(out)]
        out.write_bytes(b"an earlier table\n")
        assert main(args) == 2
        assert out.read_bytes() == b"an earlier table\n"
        out.unlink()
        assert main(args) == 2
        assert not out.exists()


class TestLoneSurrogates:
    """A JSON escape can spell a lone surrogate, which UTF-8 cannot encode;
    a value that would reach output is rejected where it enters."""

    SPOILED = [
        ("journal", "pubs", '{"id": "W1", "journal_id": "J\\ud800", "field": "Physics"}'),
        ("field", "pubs", '{"id": "W1", "journal_id": "J1", "field": "P\\udfff"}'),
        ("institution", "affiliations", '{"pub_id": "W1", "institution_ids": ["I1", "I\\ud800"]}'),
    ]

    def spoil(self, corpus, tmp_path, kind, name, line):
        path = tmp_path / f"spoiled_{name}.jsonl"
        lines = {"pubs": PUBS, "affiliations": AFFILS}[name]
        path.write_text("".join(valid + "\n" for valid in lines) + line + "\n", encoding="utf-8")
        args = aggregate_args(dict(corpus, **{name: str(path)}))
        args[args.index("--entity") + 1] = kind
        return args, str(path), len(lines) + 1

    @pytest.mark.parametrize("kind,name,line", SPOILED)
    def test_aggregate_strict_exit_2_leaves_out_untouched(
        self, corpus, tmp_path, capsys, kind, name, line
    ):
        args, path, line_no = self.spoil(corpus, tmp_path, kind, name, line)
        out = tmp_path / "store.jsonl"
        out.write_bytes(b"an earlier store\n")
        assert main([*args, "--out", str(out)]) == 2
        assert out.read_bytes() == b"an earlier store\n"
        assert f"error: {path}:{line_no}: " in capsys.readouterr().err
        out.unlink()
        assert main([*args, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind,name,line", SPOILED)
    def test_aggregate_lenient_skips_the_line(self, corpus, tmp_path, capsys, kind, name, line):
        args, path, line_no = self.spoil(corpus, tmp_path, kind, name, line)
        clean = aggregate_args(corpus, "--mode", "lenient")
        clean[clean.index("--entity") + 1] = kind
        assert main(clean) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "store.jsonl"
        assert main([*args, "--mode", "lenient", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        events = stderr_events(capsys.readouterr())
        report = next(e for e in events if e["event"] == "ingest" and e["file"] == path)
        assert (report["skipped"], report["first_bad_line"]) == (1, line_no)

    @pytest.mark.parametrize("kind,name,line", SPOILED)
    def test_validate_counts_a_defect(self, corpus, tmp_path, capsys, kind, name, line):
        _, path, line_no = self.spoil(corpus, tmp_path, kind, name, line)
        assert main(["validate", f"--{name}", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["skipped"], report["first_bad_line"]) == (1, line_no)

    @pytest.mark.parametrize(
        "member,row",
        [
            ("id", '{"kind":"institution","id":"I\\ud800","field":"Physics"'),
            ("field", '{"kind":"institution","id":"I1","field":"P\\udc00"'),
        ],
    )
    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_store_exit_2_leaves_out_untouched(self, tmp_path, capsys, command, member, row):
        store = tmp_path / "store.jsonl"
        store.write_text(
            row + ',"supporting":1,"mentioning":0,"contrasting":0,"references":1}\n'
            '{"kind":"diagnostics"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "table.out"
        out.write_bytes(b"an earlier table\n")
        assert main([command, str(store), "--out", str(out)]) == 2
        assert out.read_bytes() == b"an earlier table\n"
        assert f"error: {store}:1: '{member}' holds a lone surrogate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "fields"])
    def test_escaped_pair_is_one_astral_character(self, tmp_path, capsys, command):
        # rank reads a plain store, fields a per-field one
        label = '"field":"P\\ud83d\\ude00",' if command == "fields" else ""
        store = tmp_path / "store.jsonl"
        store.write_text(
            '{"kind":"institution","id":"I\\ud83d\\ude00",' + label
            + '"supporting":1,"mentioning":0,"contrasting":0,"references":1}\n'
            '{"kind":"diagnostics"}\n',
            encoding="utf-8",
        )
        out = tmp_path / "table.csv"
        assert main([command, str(store), "--format", "csv", "--out", str(out)]) == 0
        assert "I\U0001f600" in out.read_text(encoding="utf-8")


def run_child(args, cwd, **env):
    """A fresh interpreter run with ``args``, this tree's ``citerank`` on the
    path and ``env`` added to the environment."""
    src = str(Path(citerank.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, timeout=120,
    )


class TestHashSeed:
    def test_same_bytes_under_any_hash_seed(self, corpus, tmp_path):
        # keys and institution sets are hashed; no set order may reach the output
        institutions = ", ".join(f'"I{i}"' for i in range(1, 9))
        affiliations = tmp_path / "affiliations.jsonl"
        affiliations.write_text(
            '{"pub_id": "W1", "institution_ids": [%s]}\n' % institutions
            + AFFILS[1] + "\n" + '{"pub_id": "W3", "institution_ids": ["I3", "I9"]}\nnot json\n',
            encoding="utf-8",
        )
        corpus["affiliations"] = str(affiliations)
        aggregate = aggregate_args(corpus, "--mode", "lenient")
        aggregate[aggregate.index("--entity") + 1] = "institution"
        commands = [
            [*aggregate, "--group-by-field", "--out", "store.jsonl"],
            [*aggregate, "--out", "plain.jsonl"],
            ["rank", "plain.jsonl", "--format", "json"],
            ["fields", "store.jsonl", "--format", "csv"],
        ]
        results = []
        for seed in ("0", "1"):
            cwd = tmp_path / f"seed{seed}"
            cwd.mkdir()
            runs = [
                run_child(["-m", "citerank.cli", *args], cwd, PYTHONHASHSEED=seed)
                for args in commands
            ]
            assert [run.returncode for run in runs] == [0, 0, 0, 0], runs
            stores = [(cwd / name).read_bytes() for name in ("store.jsonl", "plain.jsonl")]
            results.append(([(run.stdout, run.stderr) for run in runs], stores))
        assert results[0] == results[1]
        assert all(b"I8" in store for store in results[0][1])


class TestStartup:
    # each pulls in what a CLI child does not need; dataclasses alone brings
    # inspect, ast, dis and tokenize
    HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "decimal", "datetime")

    def test_cli_import_leaves_heavy_modules_out(self, tmp_path):
        # a deny-list: what site start-up imports differs between machines
        code = "import sys, citerank.cli; print(*sorted(sys.modules))"
        run = run_child(["-c", code], tmp_path)
        assert run.returncode == 0, run.stderr
        loaded = set(run.stdout.decode().split())
        assert "citerank.rank" in loaded
        assert loaded.isdisjoint(self.HEAVY), loaded & set(self.HEAVY)


class TestStdoutEncoding:
    """Stdout holds the UTF-8 bytes ``--out`` holds, and every stderr log
    line is JSON, whatever encoding PYTHONIOENCODING (or the locale) gives
    the interpreter's streams."""

    PUBS = [
        '{"id": "W1", "journal_id": "Jé", "field": "Física"}',
        '{"id": "W2", "journal_id": "J\u2713", "field": "Maths"}',
    ]
    AFFILS = ['{"pub_id": "W1", "institution_ids": ["Ié", "I\U0001f600"]}']
    STATEMENTS = [
        '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024, "class": "supporting"}',
        '{"citing_id": "C2", "cited_id": "W2", "citing_year": 2024, "class": "contrasting"}',
        '{"citing_id": "C3", "cited_id": "W2", "citing_year": 2024, "class": "supporting"}',
    ]
    REFERENCES = [
        '{"citing_id": "C1", "cited_id": "W1", "citing_year": 2024}',
        '{"citing_id": "C2", "cited_id": "W2", "citing_year": 2024}',
    ]

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_stdout_bytes_equal_out_bytes(self, tmp_path, encoding):
        data = tmp_path / "dätä"
        data.mkdir()
        inputs = {}
        for name, lines in (
            ("statements", self.STATEMENTS),
            ("references", self.REFERENCES),
            ("pubs", self.PUBS),
            ("affiliations", self.AFFILS),
        ):
            inputs[name] = str(data / f"{name}.jsonl")
            Path(inputs[name]).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        aggregate = ["aggregate"] + [
            part for name, path in inputs.items() for part in (f"--{name}", path)
        ]
        commands = [
            [*aggregate, "--entity", "journal"],
            [*aggregate, "--entity", "institution", "--group-by-field"],
            ["rank", "journal.jsonl", "--format", "md"],
            ["rank", "journal.jsonl", "--format", "csv"],
            ["rank", "journal.jsonl", "--format", "json"],
            ["fields", "fields.jsonl", "--format", "md"],
        ]
        # the stores the readers read, written through --out
        for args, out in zip(commands[:2], ("journal.jsonl", "fields.jsonl")):
            assert run_child(["-m", "citerank.cli", *args, "--out", out], tmp_path).returncode == 0
        for args in commands:
            out = tmp_path / "out.txt"
            to_file = run_child(
                ["-m", "citerank.cli", *args, "--out", str(out)], tmp_path,
                PYTHONIOENCODING=encoding,
            )
            to_stdout = run_child(
                ["-m", "citerank.cli", *args], tmp_path, PYTHONIOENCODING=encoding
            )
            for run in (to_file, to_stdout):
                assert run.returncode == 0, (args, run.stderr)
                assert b"Traceback" not in run.stderr, (args, run.stderr)
            expected = out.read_bytes()
            assert "é".encode() in expected, args
            assert to_stdout.stdout == expected, args

        validate = ["validate", "--statements", inputs["statements"], "--pubs", inputs["pubs"]]
        run = run_child(["-m", "citerank.cli", *validate], tmp_path, PYTHONIOENCODING=encoding)
        assert run.returncode == 0, run.stderr
        assert b"Traceback" not in run.stderr
        in_process = io.StringIO()
        with redirect_stdout(in_process):
            assert main(validate) == 0
        assert "dätä" in in_process.getvalue()
        assert run.stdout == in_process.getvalue().encode("utf-8")

    def _inputs(self, data, bad=()):
        """The aggregate arguments that read the four input files, written
        with ``bad`` lines after the good ones into the directory ``data``."""
        os.mkdir(data)
        args = ["aggregate", "--entity", "journal", "--mode", "lenient"]
        for name, lines in (
            ("statements", self.STATEMENTS),
            ("references", self.REFERENCES),
            ("pubs", self.PUBS),
            ("affiliations", self.AFFILS),
        ):
            path = os.path.join(data, os.fsencode(f"{name}.jsonl"))
            with open(path, "wb") as handle:
                handle.write("".join(line + "\n" for line in [*lines, *bad]).encode())
            args += [f"--{name}", os.fsdecode(path)]
        return args

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_stderr_lines_are_json(self, tmp_path, encoding):
        args = self._inputs(os.fsencode(tmp_path / "enc_é"), bad=["not json"])
        run = run_child(["-m", "citerank.cli", *args], tmp_path, PYTHONIOENCODING=encoding)
        assert run.returncode == 0, run.stderr
        in_process = io.StringIO()
        with redirect_stderr(in_process), redirect_stdout(io.StringIO()):
            assert main(args) == 0
        logged = [json.loads(line) for line in run.stderr.decode("utf-8").splitlines()]
        assert logged == [json.loads(line) for line in in_process.getvalue().splitlines()]
        skipped = {row["file"]: row["skipped"] for row in logged if row["event"] == "ingest"}
        assert skipped == dict.fromkeys(args[6::2], 1)

    def test_path_not_utf8(self, tmp_path):
        # a path byte that is not UTF-8 reaches the log and validate's
        # records as a \udcXX escape, from which os.fsencode gives it back
        args = self._inputs(os.fsencode(tmp_path) + b"/bad_\xff")
        paths = sorted(map(os.fsencode, args[6::2]))
        for command, log in ((args, "stderr"), (["validate", *args[5:]], "stdout")):
            run = run_child(["-m", "citerank.cli", *command], tmp_path)
            assert run.returncode == 0, run.stderr
            assert b"Traceback" not in run.stderr
            rows = [json.loads(line) for line in getattr(run, log).decode("utf-8").splitlines()]
            assert sorted(os.fsencode(row["file"]) for row in rows if "file" in row) == paths


# every option whose converter can reject a value, under each command using it
CONVERTED_OPTIONS = [
    (command, name)
    for command, (*_, names) in COMMANDS.items()
    for name in names
    if OPTIONS[name][0] is not str
]
# option -> (a good value other than the default, a value its converter rejects)
VALUES = {
    "from-year": ("2023", "soon"),
    "to-year": ("2025", "2024.5"),
    "entity": ("journal", "planet"),
    "group-by-field": ("true", "maybe"),
    "mode": ("lenient", "sloppy"),
    "by": ("usi", "hs"),
    "exponent": ("3", "0"),
    "log-base": ("e", "1"),
    "min-valenced": ("2", "-1"),
    "min-references": ("3", "x"),
    "top": ("1", "0"),
    "format": ("csv", "pdf"),
}


def command_args(corpus, tmp_path, command, name):
    """A good run of ``command`` that leaves option ``name`` unset."""
    if command == "aggregate":
        args = aggregate_args(corpus)
        if name == "group-by-field":  # per-field grouping is for institutions only
            args[args.index("--entity") + 1] = "institution"
        return args[:-2] if name == "entity" else args
    store_path = tmp_path / "store.jsonl"
    extra = ("--entity", "institution", "--group-by-field") if command == "fields" else ()
    assert main(aggregate_args(corpus, *extra, "--out", str(store_path))) == 0
    if command == "correlate":
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            '{"id": "J1", "value": 0.5}\n{"id": "J2", "value": 0.9}\n', encoding="utf-8"
        )
        return [command, str(store_path), "--scores", str(scores)]
    return [command, str(store_path)]


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
        # one leading byte order mark is dropped, not read into the first key
        config.write_bytes(b"\xef\xbb\xbfmode = lenient\n")
        assert main(aggregate_args(corpus, "--config", str(config))) == 0
        assert '"event": "ingest"' in capsys.readouterr().err

    def test_malformed_config_line_rejected(self, corpus, tmp_path, capsys):
        config = tmp_path / "citerank.conf"
        config.write_text("just words\n", encoding="utf-8")
        assert main(aggregate_args(corpus, "--config", str(config))) == 1

    def test_line_separator_does_not_end_a_config_line(self, corpus, tmp_path, capsys):
        # U+2028 is a line break to str.splitlines(), not to an editor
        store_path = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store_path))) == 0
        config = tmp_path / "citerank.conf"
        config.write_text("# old setting, disabled\u2028top = 1\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["rank", str(store_path)]) == 0
        without = capsys.readouterr()
        assert main(["rank", str(store_path), "--config", str(config)]) == 0
        assert capsys.readouterr() == without
        assert '"beyond_top_k": 0' in without.err

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_config_error_names_the_editor_line(self, corpus, tmp_path, capsys, newline):
        config = tmp_path / "citerank.conf"
        config.write_bytes(newline.join(["mode = strict", "\f", "just words", ""]).encode())
        assert main(aggregate_args(corpus, "--config", str(config))) == 1
        assert capsys.readouterr().err == f"error: {config}:3: expected 'key = value'\n"

    @pytest.mark.parametrize("command,name", CONVERTED_OPTIONS)
    def test_flag_and_config_line_give_the_same_run(
        self, corpus, tmp_path, capsys, command, name
    ):
        convert, default, _ = OPTIONS[name]
        base = command_args(corpus, tmp_path, command, name)
        config = tmp_path / "citerank.conf"
        capsys.readouterr()

        def runs(value):
            config.write_text(f"{name} = {value}\n", encoding="utf-8")
            sources = [["--config", str(config)]]
            # a flag that takes no value can only switch the option on
            if convert is not _to_bool:
                sources.append([f"--{name}", value])
            elif value == "true":
                sources.append([f"--{name}"])
            return [(main([*base, *source]), capsys.readouterr()) for source in sources]

        good, bad = VALUES[name]
        assert convert(good) != default
        by_config, by_flag = runs(good)
        assert by_config == by_flag and by_config[0] == 0

        with pytest.raises(ValueError) as reason:
            convert(bad)
        expected = f"error: bad value for --{name}: {reason.value}\n"
        for code, captured in runs(bad):
            assert (code, captured.out, captured.err) == (1, "", expected)

    def test_readme_config_table_matches_options(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
        listed = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                key, commands = line.split("|")[1:3]
                listed[key.strip().strip("`")] = commands.strip().split(", ")
        expected = {
            name: [command for command, (*_, names) in COMMANDS.items() if name in names]
            for name in OPTIONS
        }
        assert listed == expected


class TestReadmeApiExample:
    def test_prints_what_aggregate_then_rank_print(self, corpus, tmp_path, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Python API\n")[1].split("\n## ")[0]
        code = section.split("```python\n")[1].split("```")[0]
        for name, path in corpus.items():
            quoted = f'"{name}.jsonl"'
            assert code.count(quoted) == 1
            code = code.replace(quoted, repr(path))
        exec(compile(code, "README.md", "exec"), {})
        from_api = capsys.readouterr()

        store = tmp_path / "store.jsonl"
        assert main(aggregate_args(corpus, "--out", str(store))) == 0
        capsys.readouterr()
        assert main(["rank", str(store), "--top", "10", "--format", "csv"]) == 0
        from_cli = capsys.readouterr()
        assert from_api.out == from_cli.out
        assert from_api.out.count("\n") == 3  # header, J1 and J2


# -- fuzz: mixed valid and garbage NDJSON through main() -------------------

# valid JSON whose journal id UTF-8 cannot encode
LONE_SURROGATE_PUB = b'{"id": "W1", "journal_id": "J\\ud800"}'
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
    LONE_SURROGATE_PUB,
    b"\xef\xbb\xbf" + STATEMENTS[0].encode(),
    b"{",
    b"",
    b"[1, 2]",
    b"Infinity",
    DEEP.encode(),
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
    @example(
        files={
            "statements": [STATEMENTS[0].encode()],
            "references": [],
            "pubs": [LONE_SURROGATE_PUB],
            "affiliations": [],
        },
        kind="journal",
        by_field=False,
        mode="strict",
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
        if mode == "lenient" and by_field and kind != "institution":
            assert code == 1
            expected = f"error: per-field grouping needs kind 'institution', got {kind!r}\n"
            assert err.getvalue() == expected
            assert not (base / "store.jsonl").exists()
        elif mode == "lenient":
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


# -- fuzz: garbage stores and scores through the read-side commands --------

COUNTERS = ("supporting", "mentioning", "contrasting", "references")
IDS = ["E1", "E2", "E3", "E4", "E5", "x|y\n", 'q"\\', "s\ud800"]
# values that make one member of a row wrong; None drops the member
SPOILERS = {
    "kind": ["city", "", 3, None, "journal", "field", "diagnostics"],
    "id": ["", 7, None],
    "field": ["", 1],
    "value": ["1", True, [], None],
    **{name: [-1, 1.5, 2.0, True, "3", None] for name in COUNTERS},
}
GARBAGE_LINES = st.sampled_from(
    [
        b'{"kind": "journal", "id": "E1", "supporting": ' + b"9" * 5000 + b"}",
        b'{"kind": "diagnostics"}',
        b'{"kind": "diagnostics", "events_seen": -1}',
        b'{"kind": "diagnostics", "statements_seen": true}',
        b'{"kind": [1]}',
        b'{"id": "E1", "value": NaN}',
        b'{"id": "E1", "value": 1e999}',
        b"\xef\xbb\xbf" + b'{"kind": "diagnostics"}',
        b"\xff\xfe",
        b"",
        b"[1, 2]",
        b"NaN",
        DEEP.encode(),
    ]
) | st.binary(max_size=30).map(lambda raw: raw.replace(b"\n", b""))


@st.composite
def spoiled_rows(draw, good):
    row = dict(draw(st.sampled_from(good)))
    member = draw(st.sampled_from(sorted(row)))
    value = draw(st.sampled_from(SPOILERS[member]))
    if value is None:
        del row[member]
    else:
        row[member] = value
    return json.dumps(row).encode()


@st.composite
def read_side_files(draw):
    """A store file and a scores file for it.  Each is valid rows, into
    which zero to two bad lines are put: a row with one member spoiled (a
    counter huge, a float, a bool or negative; an empty id; an unknown or
    other kind), a repeated row, a row after a diagnostics row, a BOM,
    invalid UTF-8, deep nesting or random bytes."""
    kind = draw(st.sampled_from(["journal", "institution", "field"]))
    labels = draw(st.booleans())
    rows = []
    for entity_id in draw(st.lists(st.sampled_from(IDS), max_size=6, unique=True)):
        row = {"kind": kind, "id": entity_id}
        if labels:
            row["field"] = draw(st.sampled_from(["Physics", "Maths", "M\udc00"]))
        for name in COUNTERS:
            row[name] = draw(st.integers(0, 40) | st.just(10**400))
        rows.append(row)
    value = st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False)
    scores = [{"id": row["id"], "value": draw(value)} for row in rows] + [{"id": "E9", "value": 1.0}]
    files = []
    for good in (rows, scores):
        lines = [json.dumps(obj).encode() for obj in good]
        bad = GARBAGE_LINES
        if good:
            bad = bad | st.just(lines[0]) | spoiled_rows(good)
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(bad))
        files.append(lines)
    if draw(st.integers(0, 5)):
        files[0].append(b'{"kind": "diagnostics", "statements_seen": 3}')
    return files


class TestReadSideFuzz:
    @settings(max_examples=60, deadline=None)
    @given(read_side_files())
    def test_main_never_crashes(self, tmp_path_factory, files):
        base = tmp_path_factory.mktemp("readfuzz")
        store_path, scores_path = base / "store.jsonl", base / "scores.jsonl"
        for path, lines in zip((store_path, scores_path), files):
            path.write_bytes(b"".join(line + b"\n" for line in lines))
        store, scores = str(store_path), str(scores_path)
        runs = [
            *(["rank", store, "--by", by, "--format", fmt] for by in ("si", "usi") for fmt in FORMATS),
            *(["fields", store, "--format", fmt] for fmt in FORMATS),
            *(["correlate", store, "--scores", scores, "--by", by] for by in ("si", "usi")),
        ]
        for args in runs:
            # a real stdout encodes what is written to it, and fails as it would
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(args)
            assert code in (0, 1, 2, 3), args


# -- the CLI reads a store as the library does ------------------------------

# rows joined by a bare CR are one line, whose trailing data is a defect
BARE_CR_STORE = (
    '{"kind":"journal","id":"J1","supporting":1,"mentioning":0,"contrasting":1,'
    '"references":2}\r{"kind":"diagnostics"}\n'
)


class TestStoreReadMatchesLibrary:
    @settings(max_examples=300, deadline=None)
    @given(store_texts())
    @example(text=BARE_CR_STORE)
    def test_rank_csv_matches_load_store(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        path.write_bytes(text.encode("utf-8"))
        try:
            store = load_store(io.StringIO(text), str(path))
            require_plain_store(store, "rank")
            rows, _ = rank_entities(store, RankSpec())
        except ConfigError as exc:  # a per-field store
            expected = (1, "", f"error: {exc}\n")
        except DataError as exc:
            expected = (2, "", f"error: {exc}\n")
        else:
            expected = (0, export_rows(rows, "csv"), None)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["rank", str(path), "--format", "csv"])
        assert (code, out.getvalue(), err.getvalue() if code else None) == expected


# -- the CLI's store path against the per-line read ---------------------------

# ids the dump layout holds as they are, ids it must escape, and ids an
# escape-free pattern must not take apart
STORE_IDS = ["E1", 'q"uote', "back\\slash", "ls\u2028ps", "astral\U0001f600", "é", "sp ace"]
STORE_COUNTERS = st.integers(0, 40) | st.sampled_from([10**18 - 1, 10**18, 10**19, 10**25])


@st.composite
def store_files(draw):
    """A store file's bytes: entity rows of one kind and grouping, each in
    the layout ``dump_store`` writes or with ``json.dumps`` spacing, then a
    diagnostics row, with blank lines and CRLF endings among them.  Into it
    go up to two defects: a row that repeats an earlier id, has another kind
    or grouping or follows the diagnostics row, a BOM, or a byte that is not
    UTF-8."""
    kind = draw(st.sampled_from(ENTITY_KINDS))
    labels = st.sampled_from(["Physics", "Maths"]) if kind == "institution" else st.none()
    labels = draw(st.sampled_from([labels, st.none()]))

    def entity_row(entity_id, row_kind=kind, label_values=labels):
        row = {"kind": row_kind, "id": entity_id}
        label = draw(label_values)
        if label is not None:
            row["field"] = label
        row.update((name, draw(STORE_COUNTERS)) for name in COUNTERS)
        return row

    ids = [f"E{n:03d}" if draw(st.integers(0, 3)) else name
           for n, name in enumerate(draw(st.lists(st.sampled_from(STORE_IDS), max_size=60)))]
    rows = [entity_row(entity_id) for entity_id in dict.fromkeys(ids)]
    rows.append({"kind": "diagnostics", "events_seen": draw(st.integers(0, 9))})
    lines = [
        json.dumps(row, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        if draw(st.integers(0, 3)) else json.dumps(row).encode()
        for row in rows
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines) - 1))
        defect = draw(st.sampled_from(["repeat", "kind", "grouping", "after", "bom", "utf-8"]))
        if defect == "bom":
            lines[at] = b"\xef\xbb\xbf" + lines[at]
        elif defect == "utf-8":
            lines[at] = lines[at][:5] + b"\xff" + lines[at][5:]
        else:
            entity_id = draw(st.sampled_from(ids)) if ids else "E1"
            if defect == "kind":
                row = entity_row(entity_id, draw(st.sampled_from(ENTITY_KINDS)))
            elif defect == "grouping":
                row = entity_row(entity_id, label_values=st.sampled_from([None, "Bio"]))
            else:
                row = entity_row(entity_id)
            if defect == "after":
                at = len(lines)
            lines.insert(at, json.dumps(row, separators=(",", ":"), ensure_ascii=False).encode())
    ends = st.sampled_from([b"\n"] * 4 + [b"\r\n", b"\n\n", b"\n \r\n"])
    data = b"".join(line + draw(ends) for line in lines)
    return data.rstrip(b"\r\n") if draw(st.booleans()) else data


def read_store_outcome(read, path):
    try:
        return ("store", read(path))
    except DataError as exc:
        return ("error", type(exc).__name__, str(exc))


class TestStoreFileMatchesLineRead:
    """The CLI reads a store file as ``load_store`` reads its lines one by one."""

    @settings(max_examples=150, deadline=None)
    @given(data=store_files())
    def test_same_store_or_message(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("storefile") / "store.jsonl"
        path.write_bytes(data)
        expected = read_store_outcome(lambda p: load_store(stream(p, str), p), str(path))
        for block_bytes in (1, 64, 2048):
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                assert read_store_outcome(cli._load_store_file, str(path)) == expected
