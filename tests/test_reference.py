"""The CLI end to end against the reference model, and the model's
independence.

``TestCliMatchesReference`` draws small corpora, writes them as the four
input files, and runs ``aggregate`` and every store reader through
``cli.main``.  Each run's exit code, stdout, ``--out`` bytes and stderr
must be what ``reference.py`` gives.
"""

import ast
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citerank.aggregate import load_store
from citerank.cli import main
from citerank.errors import ParseError
from citerank.ingest import AffiliationRecord, PublicationRecord, ReferenceEvent
from citerank.ingest import StatementRecord
from citerank.rank import FORMATS, METRICS
import reference
from test_aggregate import random_affils, random_events, random_pubs, random_statements
from test_aggregate import random_windows
from test_cli import GARBAGE
from test_ingest import oracle_reference, oracle_statement

# awkward names for ids the record strategies draw: a quote, a comma, a
# pipe, each kind of line break and a non-ASCII letter
RENAMES = {"J1": "J\r1", "J2": "J,2", "F1": 'F"1', "F2": "F|2\n", "I1": "I\r\n1", "I2": "Rzeszów"}
SCORED_IDS = ["J1", "J2", "J3", "F1", "F2", "I1", "I2", "I3", "I4", "I5", "X9"]
AGGREGATES = [("journal", False), ("field", False), ("institution", False), ("institution", True)]
# each reader run is (command, options); correlate also gets --scores
PLAIN_RUNS = [
    *(("rank", {"--by": by, "--format": fmt}) for by in METRICS for fmt in FORMATS),
    ("rank", {"--by": "usi", "--min-valenced": "1", "--top": "2", "--format": "csv"}),
    *(("correlate", {"--by": by}) for by in METRICS),
]
FIELDS_RUNS = [("fields", {"--format": fmt}) for fmt in FORMATS]


def written(pubs, affiliations, statements, references, compact=False):
    """Each input file's lines, one object per record: with ``json.dumps``
    spacing, or ``compact`` in the layout ``dump_*`` writes (no whitespace,
    null keys left out)."""
    objects = {
        "pubs": [pub._asdict() for pub in pubs],
        "affiliations": [
            {"pub_id": aff.pub_id, "institution_ids": sorted(aff.institution_ids)}
            for aff in affiliations
        ],
        "statements": [
            {"citing_id": citing, "cited_id": cited, "citing_year": year, "class": stance}
            for citing, cited, year, stance in statements
        ],
        "references": [
            {"citing_id": citing, "cited_id": cited, "citing_year": year}
            for citing, cited, year in references
        ],
    }
    if compact:
        return {
            name: [
                json.dumps({key: value for key, value in obj.items() if value is not None},
                           separators=(",", ":"), ensure_ascii=False).encode()
                for obj in rows
            ]
            for name, rows in objects.items()
        }
    return {name: [json.dumps(obj).encode() for obj in rows] for name, rows in objects.items()}


@st.composite
def corpora(draw):
    """Records drawn by the aggregate tests' strategies, ids now and then
    renamed, and written in either layout; up to two statements and
    references lines are the CLI tests' garbage.  Also a citing-year window
    and a score for some ids."""
    names = RENAMES if draw(st.booleans()) else {}
    pubs = [
        PublicationRecord(pub.id, names.get(pub.journal_id, pub.journal_id),
                          names.get(pub.field, pub.field))
        for pub in draw(random_pubs)
    ]
    affiliations = [
        AffiliationRecord(aff.pub_id, frozenset(names.get(i, i) for i in aff.institution_ids))
        for aff in draw(random_affils)
    ]
    files = written(
        pubs, affiliations, draw(random_statements), draw(random_events), draw(st.booleans())
    )
    for name in ("statements", "references"):
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            lines = files[name]
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(GARBAGE)))
    values = st.integers(-3, 3) | st.floats(-10, 10)
    scores = {names.get(i, i): draw(values) for i in SCORED_IDS if draw(st.booleans())}
    return pubs, affiliations, files, tuple(draw(random_windows)), scores


# Always drawn: statements on both window bounds and in every class; the
# pair (C1, W2) first out of the window, then in it; a journal id holding a
# bare CR; and J2 and J3 tied on both metrics.
PUBS = [PublicationRecord("W1", "J\r1", "F1"), PublicationRecord("W2", "J2", "F1"),
        PublicationRecord("W3", "J3", "F2")]
AFFILIATIONS = [AffiliationRecord("W1", frozenset({"I1", "I2"})),
                AffiliationRecord("W2", frozenset({"I1"})), AffiliationRecord("W3", frozenset({"I3"}))]


def pinned(compact):
    """The always-drawn corpus, in either layout."""
    files = written(
        PUBS,
        AFFILIATIONS,
        [StatementRecord("C1", "W1", 2023, "supporting"),
         StatementRecord("C2", "W1", 2024, "contrasting"),
         StatementRecord("C2", "W1", 2024, "mentioning"),
         StatementRecord("C1", "W2", 2024, "supporting"),
         StatementRecord("C3", "W3", 2024, "supporting"),
         StatementRecord("C1", "W1", 2025, "supporting")],
        [ReferenceEvent("C1", "W2", 2022), ReferenceEvent("C1", "W2", 2024),
         ReferenceEvent("C1", "W1", 2024), ReferenceEvent("C2", "W1", 2023),
         ReferenceEvent("C1", "W3", 2024)],
        compact,
    )
    scores = {"J\r1": 1, "J2": 2, "J3": 0.5, "I1": 3, "I2": -1, "F1": 2, "F2": 1}
    return PUBS, AFFILIATIONS, files, (2023, 2024), scores


def parsed(lines, oracle):
    """The records the parser oracle reads from a file's lines, and the
    numbers of the lines it refuses."""
    records, bad = [], []
    for line_no, raw in enumerate(lines, start=1):
        try:
            records.append(oracle(raw.decode("utf-8") + "\n"))
        except (UnicodeDecodeError, ParseError):
            bad.append(line_no)
    return records, bad


def run(args):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(args)
    return code, stdout.getvalue(), stderr.getvalue()


def log(*events):
    return "".join(json.dumps(event, ensure_ascii=False) + "\n" for event in events)


def consistency(store):
    flagged = sum(1 for s, m, c, r in store.values() if s + m + c > r)
    status = "FAILED" if flagged else "ok"
    return {"event": "consistency", "entities_flagged": flagged, "status": status}


def model_aggregate(records, skips, window, kind, by_field, mode):
    """(exit code, stdout, store text, stderr) of a run that reads every line,
    from the parsed records and each file's (path, refused line numbers)."""
    pubs, affiliations, _, _ = records
    store, diagnostics = reference.fold(*records, window, kind, by_field)
    rows = reference.store_rows(store, diagnostics)
    events = []
    if mode == "lenient":
        events = [
            {"event": "ingest", "file": path, "skipped": len(bad),
             "first_bad_line": bad[0] if bad else None}
            for path, bad in skips
        ]
    events.append({
        "event": "link_tables",
        "publication_overwrites": len(pubs) - len({pub.id for pub in pubs}),
        "affiliation_overwrites": len(affiliations) - len({aff.pub_id for aff in affiliations}),
    })
    events.append({"event": "aggregate", **{k: v for k, v in rows[-1].items() if k != "kind"}})
    return 0, "", reference.store_text(store, diagnostics), log(*events, consistency(store))


def model_reader(command, options, store, scores):
    """(exit code, stdout, stderr) of a store reader's run."""
    try:
        if command == "rank":
            top = options.get("--top")
            rows, exclusions = reference.rank(
                store, options["--by"], min_valenced=int(options.get("--min-valenced", 0)),
                top=None if top is None else int(top),
            )
            events = log({"event": "exclusions", **exclusions}, consistency(store))
            return 0, reference.rank_table(rows, options["--format"]), events
        if command == "fields":
            rows, undefined = reference.breakdown(store)
            return 0, reference.breakdown_table(rows, options["--format"]), log(
                {"event": "breakdown", "rows": len(rows), "undefined_metric": undefined}
            )
        return 0, json.dumps(reference.correlate(store, scores, options["--by"])) + "\n", ""
    except reference.Refused as refusal:
        return refusal.code, "", f"error: {refusal}\n"


class TestCliMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(corpora())
    @example(corpus=pinned(compact=False))
    @example(corpus=pinned(compact=True))
    def test_every_command(self, tmp_path_factory, corpus):
        pubs, affiliations, files, window, scores = corpus
        base = tmp_path_factory.mktemp("reference")
        paths = {name: str(base / f"{name}.jsonl") for name in (*files, "scores")}
        for name, lines in files.items():
            Path(paths[name]).write_bytes(b"".join(line + b"\n" for line in lines))
        Path(paths["scores"]).write_text(
            "".join(json.dumps({"id": i, "value": v}) + "\n" for i, v in scores.items()), "utf-8"
        )
        statements, bad_statements = parsed(files["statements"], oracle_statement)
        references, bad_references = parsed(files["references"], oracle_reference)
        skips = [(paths["pubs"], []), (paths["affiliations"], []),
                 (paths["statements"], bad_statements), (paths["references"], bad_references)]
        first_bad = next(((path, bad[0]) for path, bad in skips if bad), None)
        inputs = [item for name in files for item in (f"--{name}", paths[name])]
        window_flags = ["--from-year", str(window[0]), "--to-year", str(window[1])]
        for kind, by_field in AGGREGATES:
            out = base / f"{kind}{'-fields' if by_field else ''}.store.jsonl"
            for mode in ("strict", "lenient"):
                args = ["aggregate", *inputs, *window_flags, "--entity", kind, "--mode", mode]
                if by_field:
                    args.append("--group-by-field")
                code, stdout, stderr = run([*args, "--out", str(out)])
                if mode == "strict" and first_bad:
                    # the full reason is the parser tests' concern
                    assert (code, stdout, out.exists()) == (2, "", False)
                    assert stderr.startswith("error: {}:{}: ".format(*first_bad)), stderr
                    continue
                records = (pubs, affiliations, statements, references)
                expected = model_aggregate(records, skips, window, kind, by_field, mode)
                assert (code, stdout, out.read_text("utf-8"), stderr) == expected
            # the lenient run reads every line, so it wrote the model's store
            store, _ = reference.read_store(expected[2], str(out))
            for command, options in PLAIN_RUNS + (FIELDS_RUNS if by_field else []):
                args = [command, str(out), *[item for pair in options.items() for item in pair]]
                if command == "correlate":
                    args += ["--scores", paths["scores"]]
                actual = run(args)
                expected = model_reader(command, options, store, scores)
                if command == "correlate" and actual[0] == expected[0] == 0:
                    got, want = json.loads(actual[1]), json.loads(expected[1])
                    assert got.pop("r") == pytest.approx(want.pop("r"), rel=0, abs=1e-12)
                    actual, expected = (got, actual[2]), (want, expected[2])
                assert actual == expected, args


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            '{"kind":"field","id":"F1","field":"F1","supporting":1,"mentioning":0,'
            '"contrasting":0,"references":1}\n{"kind":"diagnostics"}\n',
            id="per-field-field",
        ),
        pytest.param('\x1c\n{"kind":"diagnostics"}\n', id="unit-separator-line"),
        pytest.param(' \t\r\n\u2028\n{"kind":"diagnostics"}\n', id="line-separator-line"),
    ],
)
def test_read_store_refuses_as_load_store_does(text):
    with pytest.raises(ParseError) as error:
        load_store(io.StringIO(text), "store.jsonl")
    with pytest.raises(reference.Refused) as refusal:
        reference.read_store(text, "store.jsonl")
    assert (refusal.value.code, str(refusal.value)) == (2, str(error.value))


def test_reference_imports_nothing_from_citerank():
    tree = ast.parse(Path(reference.__file__).read_text("utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "json" in modules
    assert [name for name in modules if name.split(".")[0] == "citerank"] == []
