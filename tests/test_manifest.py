"""Hold the bytes of ``citerank aggregate`` and of the store readers to the
committed manifest.

See ``aggregate_manifest.py`` for the matrix and how to rewrite the file.
"""

import sys

from aggregate_manifest import COMPACT_OF, HEADER, MANIFEST, manifest_lines


def test_aggregate_runs_match_manifest(tmp_path):
    header, *expected = MANIFEST.read_text("utf-8").splitlines()
    assert header == HEADER, (
        f"{MANIFEST.name} was written under {header[2:]!r}, this is Python "
        f"{sys.version.split()[0]}: json error messages may differ, so rewrite it"
    )
    actual = manifest_lines(tmp_path)
    changed = sorted(set(actual) ^ set(expected))
    assert actual == expected, "runs that differ from the manifest:\n" + "\n".join(changed)


def test_compact_corpora_give_the_spaced_bytes():
    runs: dict[str, list[str]] = {}
    for line in MANIFEST.read_text("utf-8").splitlines()[1:]:
        corpus, run = line.split("\t", 1)
        runs.setdefault(corpus, []).append(run)
    for compact, spaced in COMPACT_OF.items():
        assert runs[compact] == runs[spaced], compact
