"""A fixed matrix of ``citerank aggregate`` runs, recorded as bytes.

Each run is one line of ``tests/golden/aggregate_manifest.txt``: its
arguments, its exit code and the sha256 of its stdout, its stderr and the
``--out`` file ("-" when no file was written).  The runs are every
``--entity`` × plain/``--group-by-field`` × ``--mode`` × stdout/``--out``,
on the CLI tests' corpus, on a dirty copy of it (a repeated publication, a
repeated affiliation and one bad statements line) and on a copy with one
bad affiliations line.  The last holds that every kind, even one that reads
no institution, parses every affiliation line: a strict run exits 2 and
names it, a lenient run reports it.  ``test_manifest.py`` holds every line
to the file.

Each run goes in-process through ``cli.main`` with the working directory
set to the corpus's own directory and relative paths, so the file names
in stderr do not depend on where the tests run.  Messages of Python's
``json`` module are part of stderr, so the header names the Python
version the file was written with.

A change that alters aggregate's bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/aggregate_manifest.py

and names the changed lines in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from citerank.cli import CONFIG_ENV_VAR, main
from citerank.linking import ENTITY_KINDS
from test_cli import AFFILS, PUBS, REFERENCES, STATEMENTS

MANIFEST = Path(__file__).parent / "golden" / "aggregate_manifest.txt"
HEADER = f"# python {sys.version_info[0]}.{sys.version_info[1]}"
OUT = "store.jsonl"

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


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _run(args: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(args)
    out = Path(OUT)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    digests = (_sha(stdout.getvalue().encode()), _sha(stderr.getvalue().encode()), _sha(written))
    return "\t".join((" ".join(args), str(code), *digests))


def manifest_lines(tmp_dir: Path) -> list[str]:
    """Run the whole matrix under ``tmp_dir`` and return the sorted lines."""
    lines = []
    saved_cwd, saved_config = os.getcwd(), os.environ.pop(CONFIG_ENV_VAR, None)
    try:
        for corpus, files in CORPORA.items():
            (tmp_dir / corpus).mkdir()
            os.chdir(tmp_dir / corpus)
            inputs = []
            for name, rows in files.items():
                Path(f"{name}.jsonl").write_text("".join(row + "\n" for row in rows), "utf-8")
                inputs += [f"--{name}", f"{name}.jsonl"]
            for kind, by_field, mode, out in itertools.product(
                ENTITY_KINDS, ((), ("--group-by-field",)), ("strict", "lenient"), ((), ("--out", OUT))
            ):
                args = ["aggregate", *inputs, "--entity", kind, *by_field, "--mode", mode, *out]
                lines.append(f"{corpus}\t{_run(args)}")
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
