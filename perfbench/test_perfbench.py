"""Tests of the benchmark itself: corpus determinism, output checks, span
arithmetic, child peak memory.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr

import pytest

import checks
import corpus
import run
import spans
from citerank.cli import main
from citerank.errors import ParseError
from citerank.ingest import parse_affiliation, parse_publication, parse_reference, parse_statement

SMALL = 0.02


def corpus_digest(workload, seed, out_dir):
    os.makedirs(out_dir)
    generated = corpus.generate(workload, seed, SMALL, str(out_dir))
    digest = hashlib.sha256()
    for name in sorted(generated.files):
        with open(generated.files[name], "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", ["journal-stream", "institution-fields", "rank-store"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    first = corpus_digest(workload, 7, tmp_path / "a")
    assert corpus_digest(workload, 7, tmp_path / "b") == first
    assert corpus_digest(workload, 8, tmp_path / "c") != first


@pytest.mark.parametrize(
    "stream, parser",
    [
        ("statements", parse_statement),
        ("references", parse_reference),
        ("pubs", parse_publication),
        ("affiliations", parse_affiliation),
    ],
)
def test_every_malformed_line_is_rejected(stream, parser):
    for line in corpus._MALFORMED[stream]:
        with pytest.raises(ParseError):
            parser(line)


def aggregate(generated, store_path):
    argv = ["aggregate", "--entity", generated.entity, "--mode", generated.mode, "--out", store_path]
    for name in corpus.STREAMS:
        argv += [f"--{name}", generated.files[name]]
    if generated.by_field:
        argv.append("--group-by-field")
    log = io.StringIO()
    with redirect_stderr(log):
        assert main(argv) == 0
    return log.getvalue()


@pytest.mark.parametrize("workload", ["journal-stream", "institution-fields"])
def test_store_check_catches_one_count_off_by_one(workload, tmp_path):
    generated = corpus.generate(workload, 3, SMALL, str(tmp_path))
    store_path = str(tmp_path / "store.jsonl")
    log = aggregate(generated, store_path)
    checks.check_store(generated, store_path, log)

    with open(store_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    row = json.loads(lines[0])
    row["contrasting"] += 1
    lines[0] = json.dumps(row, separators=(",", ":")) + "\n"
    with open(store_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.raises(checks.CheckError, match="tally of"):
        checks.check_store(generated, store_path, log)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_span_self_time_and_gc_arithmetic():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    clock = FakeClock(0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0)
    tracer = spans.Tracer(clock)
    outer = tracer.open("outer")
    a = tracer.open("a")
    tracer.close(a)
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    tracer.close(outer)
    # one collection [3, 6.5] straddles a, the gap between a and b, b and c
    tracer.clock = FakeClock(3.0, 6.5)
    tracer.on_gc("start", {})
    tracer.on_gc("stop", {})

    stats = tracer.summary()
    assert stats["outer"].total == pytest.approx(10.0)
    assert stats["outer"].self_time == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["b"].self_time == pytest.approx(4.0 - 1.0)
    assert stats["c"].self_time == pytest.approx(1.0)
    assert stats["a"].gc == pytest.approx(1.0)
    assert stats["b"].gc == pytest.approx(1.5)
    assert stats["c"].gc == pytest.approx(0.5)
    assert stats["b"].self_gc == pytest.approx(1.0)
    assert stats["outer"].gc == pytest.approx(3.5)
    assert stats["outer"].self_gc == pytest.approx(3.5 - 1.0 - 1.5)


def test_patched_functions_are_restored():
    import citerank.aggregate
    import citerank.cli

    original = citerank.cli.build_store
    tracer = spans.Tracer()
    replaced = spans.patch_layers(tracer)
    try:
        assert citerank.cli.build_store is not original
        assert citerank.aggregate.build_store is not original
    finally:
        spans.unpatch(replaced)
    assert citerank.cli.build_store is original
    assert citerank.aggregate.build_store is original


def test_child_peak_rss_is_not_the_benchmarks(tmp_path):
    with run.Spawner() as spawner:
        ballast = bytearray(160 * 1024 * 1024)
        for offset in range(0, len(ballast), 4096):
            ballast[offset] = 1
        child = spawner.run([sys.executable, "-c", "pass"], dict(os.environ), str(tmp_path))
    assert child.code == 0
    assert child.rss_mib < 80
