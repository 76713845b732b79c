"""A fixed matrix of ``citerank`` runs, recorded as bytes.

Each run is one line of ``tests/golden/aggregate_manifest.txt``: its
corpus, its arguments, its exit code and the sha256 of its stdout, its
stderr and the ``--out`` file ("-" when no file was written).  The
``aggregate`` runs are every ``--entity`` × plain/``--group-by-field`` ×
``--mode`` × stdout/``--out``, on the CLI tests' corpus, on a dirty copy
of it (a repeated publication, a repeated affiliation and one bad
statements line) and on a copy with one bad affiliations line.  The last
holds that every kind, even one that reads no institution, parses every
affiliation line: a strict run exits 2 and names it, a lenient run
reports it.  The clean and dirty corpora also come as ``-compact``
copies, each object rewritten in the layout ``dump_*`` writes (no
whitespace, null keys left out); every run on them must give the bytes of
the same run on the spaced corpus.  The ``canonical`` corpus is written in
that layout throughout: 100 statements lines with a bad line at line 40
and a year of 1399 at line 70, CRLF lines, and no LF after the last line.

Each lenient ``--out`` store that ``aggregate`` writes (one per kind ×
grouping that exits 0) is then read by the store readers: ``rank`` in
every ``--format`` × ``--by`` and ``correlate --by si|usi`` (against a
small scores file beside the corpus) on each plain store; ``rank``
(refused) and ``fields`` in every ``--format``, with the default ``si``
and with ``--exponent 3`` and ``--log-base e``, on the per-field store;
one refused ``fields`` run on the plain institution store; and one
``validate`` of the corpus's four inputs.  Three defective stores, which
no ``aggregate`` run writes (per-field rows of kind ``journal``, per-field
rows of kind ``field``, and a line holding only U+2028, which is not JSON
whitespace), go through ``rank`` in every ``--format``, ``fields`` and
``correlate``.  One valid hand-written per-field store of exact ties
(two institutions with equal tallies in one field, one institution in two
fields, and one cell with an undefined ``si``) goes through ``fields`` in
every ``--format`` and a refused ``rank``.  Two plain stores of repeated
tallies go through ``rank`` in every ``--format`` × ``--by`` and
``correlate --by si|usi``, with the default exponent and with
``--exponent 1e308``: one mixes the ``dump_store`` layout with spaced rows
and holds a blank line, and in the other a tally whose ``si`` is not finite
under 1e308 comes again after another such tally.  ``test_manifest.py``
holds every line to the file.

Each run goes in-process through ``cli.main`` with the working directory
set to the corpus's own directory and relative paths, so the file names
in stderr do not depend on where the tests run.  Messages of Python's
``json`` module are part of stderr, so the header names the Python
version the file was written with.

A change that alters these bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/aggregate_manifest.py

and names the changed lines in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from citerank.cli import CONFIG_ENV_VAR, main
from citerank.linking import ENTITY_KINDS
from citerank.rank import FORMATS, METRICS
from test_cli import AFFILS, PUBS, REFERENCES, STATEMENTS

MANIFEST = Path(__file__).parent / "golden" / "aggregate_manifest.txt"
HEADER = f"# python {sys.version_info[0]}.{sys.version_info[1]}"
OUT = "store.jsonl"
SCORES = "scores.jsonl"
# every kind's ids, so each plain store has points to correlate
SCORE_ROWS = [
    '{"id": "J1", "value": 2.5}',
    '{"id": "J2", "value": 1}',
    '{"id": "I1", "value": 3.25}',
    '{"id": "I2", "value": 0.5}',
    '{"id": "I3", "value": 1.5}',
    '{"id": "Physics", "value": 4}',
    '{"id": "Maths", "value": 2}',
    '{"id": "X9", "value": 7}',
]


def _row(kind: str, entity_id: str, label: str | None, *counts: int) -> str:
    field = "" if label is None else f'"field":"{label}",'
    counters = zip(("supporting", "mentioning", "contrasting", "references"), counts)
    members = ",".join(f'"{name}":{count}' for name, count in counters)
    return f'{{"kind":"{kind}","id":"{entity_id}",{field}{members}}}'


DIAGNOSTICS_ROW = '{"kind":"diagnostics"}'
SI_OPTIONS = (("--exponent", "3"), ("--log-base", "e"))
DEFECTIVE_STORES = {
    "journal-fields.bad.jsonl": [
        _row("journal", "J1", "Physics", 3, 1, 1, 12),
        _row("journal", "J2", "Maths", 1, 0, 2, 5),
        DIAGNOSTICS_ROW,
    ],
    "field-fields.bad.jsonl": [
        _row("field", "Physics", "Physics", 3, 1, 1, 12),
        _row("field", "Maths", "Maths", 1, 0, 2, 5),
        DIAGNOSTICS_ROW,
    ],
    "line-separator.bad.jsonl": [
        _row("journal", "J1", None, 3, 1, 1, 12),
        "\u2028",
        _row("journal", "J2", None, 1, 0, 2, 5),
        DIAGNOSTICS_ROW,
    ],
}
TIES_STORE = "ties-fields.store.jsonl"
TIES_ROWS = [
    _row("institution", "I2", "Physics", 3, 1, 1, 12),
    _row("institution", "I1", "Physics", 3, 1, 1, 12),
    _row("institution", "I1", "Maths", 3, 1, 1, 12),
    _row("institution", "I3", "Maths", 0, 4, 0, 9),
    DIAGNOSTICS_ROW,
]


REPEATS_STORES = {
    # entities share tallies, some rows are spaced as json.dumps writes them,
    # and one line is blank
    "repeats.store.jsonl": [
        _row("journal", "J1", None, 3, 1, 1, 12),
        json.dumps(json.loads(_row("journal", "J2", None, 1, 0, 2, 5))),
        "",
        _row("journal", "J3", None, 3, 1, 1, 12),
        _row("journal", "X9", None, 1, 0, 2, 5),
        json.dumps(json.loads(_row("journal", "J4", None, 3, 1, 1, 12))),
        _row("journal", "J5", None, 0, 4, 0, 9),
        _row("journal", "J6", None, 0, 4, 0, 9),
        DIAGNOSTICS_ROW,
    ],
    # under --exponent 1e308 neither J2 nor J3 has a finite si, and J2's
    # tally comes again after J3's
    "nonfinite.store.jsonl": [
        _row("journal", "J1", None, 4, 1, 0, 20),
        _row("journal", "J2", None, 1, 0, 5994, 10),
        _row("journal", "J3", None, 1, 0, 999, 7),
        _row("journal", "X9", None, 1, 0, 5994, 10),
        _row("journal", "J4", None, 0, 2, 3, 4),
        DIAGNOSTICS_ROW,
    ],
}
HUGE_EXPONENT = ("--exponent", "1e308")


def _compact(rows: list[str]) -> list[str]:
    """Each JSON object row in the layout ``dump_*`` writes; other rows as they are."""
    compact = []
    for row in rows:
        try:
            obj = json.loads(row)
        except json.JSONDecodeError:
            compact.append(row)
            continue
        present = {key: value for key, value in obj.items() if value is not None}
        compact.append(json.dumps(present, separators=(",", ":"), ensure_ascii=False))
    return compact


def _canonical_corpus() -> dict[str, str]:
    """Four files in the layout ``dump_*`` writes, as whole texts; statement
    years stay far from ``ingest._MAX_YEAR``."""
    stances = ("supporting", "mentioning", "contrasting")
    pubs = [
        f'{{"id":"W{n}","journal_id":"J{n % 3}","field":"{("Physics", "Maths")[n % 2]}",'
        f'"year":{1990 + n}}}'
        for n in range(9)
    ]
    pubs += ['{"id":"W9","journal_id":"Jé"}', '{"id":"W10","field":"Maths"}', '{"id":"W11"}']
    affiliations = [
        f'{{"pub_id":"W{n}","institution_ids":["I{n % 4}","I{(n + 1) % 4}"]}}' for n in range(9)
    ]
    affiliations += ['{"pub_id":"W9","institution_ids":[]}',
                     '{"pub_id":"W10","institution_ids":["I1","I1"]}']
    statements = [
        f'{{"citing_id":"C{n % 17}","cited_id":"W{n % 13}","citing_year":{2023 + (n % 5 > 0)},'
        f'"class":"{stances[n % 3]}"}}'
        for n in range(100)
    ]
    # W12 is cited but never described
    statements[39] = '{"citing_id":"C1","cited_id":"W1","citing_year":2024,"class":"refuting"}'
    statements[69] = '{"citing_id":"C2","cited_id":"W2","citing_year":1399,"class":"supporting"}'
    references = [
        f'{{"citing_id":"C{n % 17}","cited_id":"W{n % 13}","citing_year":{2023 + (n % 4 > 0)}}}'
        for n in range(60)
    ]

    def text(rows: list[str], last_lf: bool = True) -> str:
        ends = ["\r\n" if n % 7 == 3 else "\n" for n in range(len(rows))]
        if not last_lf:
            ends[-1] = ""
        return "".join(row + end for row, end in zip(rows, ends))

    return {
        "statements": text(statements, last_lf=False),
        "references": text(references),
        "pubs": text(pubs),
        "affiliations": text(affiliations, last_lf=False),
    }


CORPORA = {
    "clean": {
        "statements": STATEMENTS,
        "references": REFERENCES,
        "pubs": PUBS,
        "affiliations": AFFILS,
    },
    "dirty": {
        "statements": [*STATEMENTS[:2], "garbage", *STATEMENTS[2:]],
        "references": REFERENCES,
        # W1 loses its field and moves journal; W2 gains institutions
        "pubs": [*PUBS, '{"id": "W1", "journal_id": "J2"}'],
        "affiliations": [*AFFILS, '{"pub_id": "W2", "institution_ids": ["I2", "I3"]}'],
    },
    "bad-affiliation": {
        "statements": STATEMENTS,
        "references": REFERENCES,
        "pubs": PUBS,
        "affiliations": [AFFILS[0], '{"pub_id": "W2", "institution_ids": "I1"}', *AFFILS[1:]],
    },
}
COMPACT_OF = {f"{name}-compact": name for name in ("clean", "dirty")}
CORPORA.update(
    {
        compact: {name: _compact(rows) for name, rows in CORPORA[spaced].items()}
        for compact, spaced in COMPACT_OF.items()
    }
)
CORPORA["canonical"] = _canonical_corpus()


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _run(args: list[str]) -> tuple[str, int, bytes | None]:
    """The run's manifest fields, its exit code and the ``--out`` file's bytes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(args)
    out = Path(OUT)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    digests = (_sha(stdout.getvalue().encode()), _sha(stderr.getvalue().encode()), _sha(written))
    return "\t".join((" ".join(args), str(code), *digests)), code, written


def _reader_runs(stores: dict[str, bool], inputs: list[str]) -> list[list[str]]:
    """The store readers' runs on the kept stores (name -> per-field)."""
    runs = []
    for store, per_field in stores.items():
        if per_field:
            runs.append(["rank", store])
            runs += [
                ["fields", store, "--format", fmt, *si_options]
                for fmt, si_options in itertools.product(FORMATS, ((), *SI_OPTIONS))
            ]
            continue
        runs += [
            ["rank", store, "--format", fmt, "--by", by]
            for fmt, by in itertools.product(FORMATS, METRICS)
        ]
        runs += [["correlate", store, "--scores", SCORES, "--by", by] for by in METRICS]
    runs.append(["fields", "institution.store.jsonl"])
    runs.append(["validate", *inputs])
    return runs


def _write_lines(name: str, rows: list[str] | str) -> None:
    """A file of ``rows``, each ended by LF, or of the text ``rows`` as it is."""
    text = rows if isinstance(rows, str) else "".join(row + "\n" for row in rows)
    Path(name).write_bytes(text.encode("utf-8"))


def _defective_runs() -> list[list[str]]:
    """Every store reader on each defective store, in the current directory."""
    runs = []
    for store, rows in DEFECTIVE_STORES.items():
        _write_lines(store, rows)
        runs += [["rank", store, "--format", fmt] for fmt in FORMATS]
        runs.append(["fields", store])
        runs.append(["correlate", store, "--scores", SCORES])
    return runs


def _ties_runs() -> list[list[str]]:
    """``fields`` in every format and a refused ``rank`` on the ties store,
    in the current directory."""
    _write_lines(TIES_STORE, TIES_ROWS)
    return [["fields", TIES_STORE, "--format", fmt] for fmt in FORMATS] + [["rank", TIES_STORE]]


def _repeats_runs() -> list[list[str]]:
    """``rank`` in every ``--format`` × ``--by`` and ``correlate --by
    si|usi`` on each store of repeated tallies, with the default exponent
    and with 1e308, in the current directory."""
    runs = []
    for store, rows in REPEATS_STORES.items():
        _write_lines(store, rows)
        for si_options in ((), HUGE_EXPONENT):
            runs += [
                ["rank", store, "--format", fmt, "--by", by, *si_options]
                for fmt, by in itertools.product(FORMATS, METRICS)
            ]
            runs += [["correlate", store, "--scores", SCORES, "--by", by, *si_options]
                     for by in METRICS]
    return runs


def manifest_lines(tmp_dir: Path) -> list[str]:
    """Run the whole matrix under ``tmp_dir`` and return the sorted lines."""
    lines = []
    saved_cwd, saved_config = os.getcwd(), os.environ.pop(CONFIG_ENV_VAR, None)
    try:
        for corpus, files in CORPORA.items():
            (tmp_dir / corpus).mkdir()
            os.chdir(tmp_dir / corpus)
            inputs = []
            for name, rows in (*files.items(), ("scores", SCORE_ROWS)):
                _write_lines(f"{name}.jsonl", rows)
                if name in files:
                    inputs += [f"--{name}", f"{name}.jsonl"]
            stores: dict[str, bool] = {}
            for kind, by_field, mode, out in itertools.product(
                ENTITY_KINDS, ((), ("--group-by-field",)), ("strict", "lenient"), ((), ("--out", OUT))
            ):
                args = ["aggregate", *inputs, "--entity", kind, *by_field, "--mode", mode, *out]
                line, code, written = _run(args)
                lines.append(f"{corpus}\t{line}")
                if mode == "lenient" and written is not None and code == 0:
                    store = f"{kind}{'-fields' if by_field else ''}.store.jsonl"
                    Path(store).write_bytes(written)
                    stores[store] = bool(by_field)
            for args in _reader_runs(stores, inputs):
                lines.append(f"{corpus}\t{_run(args)[0]}")
        (tmp_dir / "defective").mkdir()
        os.chdir(tmp_dir / "defective")
        _write_lines(SCORES, SCORE_ROWS)
        lines += [f"defective\t{_run(args)[0]}" for args in _defective_runs()]
        (tmp_dir / "ties").mkdir()
        os.chdir(tmp_dir / "ties")
        lines += [f"ties\t{_run(args)[0]}" for args in _ties_runs()]
        (tmp_dir / "repeats").mkdir()
        os.chdir(tmp_dir / "repeats")
        _write_lines(SCORES, SCORE_ROWS)
        lines += [f"repeats\t{_run(args)[0]}" for args in _repeats_runs()]
    finally:
        os.chdir(saved_cwd)
        if saved_config is not None:
            os.environ[CONFIG_ENV_VAR] = saved_config
    return sorted(lines)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = manifest_lines(Path(tmp))
    MANIFEST.write_text("\n".join([HEADER, *lines]) + "\n", "utf-8")
    print(f"wrote {len(lines)} runs to {MANIFEST}")
