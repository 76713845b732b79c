"""Hold ``citerank aggregate``'s bytes to the committed manifest.

See ``aggregate_manifest.py`` for the matrix and how to rewrite the file.
"""

import sys

from aggregate_manifest import HEADER, MANIFEST, manifest_lines


def test_aggregate_runs_match_manifest(tmp_path):
    header, *expected = MANIFEST.read_text("utf-8").splitlines()
    assert header == HEADER, (
        f"{MANIFEST.name} was written under {header[2:]!r}, this is Python "
        f"{sys.version.split()[0]}: json error messages may differ, so rewrite it"
    )
    actual = manifest_lines(tmp_path)
    changed = sorted(set(actual) ^ set(expected))
    assert actual == expected, "runs that differ from the manifest:\n" + "\n".join(changed)
