"""citerank benchmark: seeded corpora, CLI children in a closed loop, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload journal-stream --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another. Each
workload's commands run as fresh ``python -m citerank.cli`` children, one at
a time, until ``--seconds`` have passed. ``--trace 1`` then replays the
commands once more in this process with spans around citerank's public
functions and reports per-layer metrics instead of end-to-end ones. The
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("journal-stream", "institution-fields", "rank-store")
STARTUP_REPEATS = 5
SETUPS_PER_PASS = 2
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 120
TOP_K = 100
MIN_VALENCED = 5

# Fresh interpreter and import; for the aggregate workloads also the link
# tables over the workload's pubs and affiliations.
SETUP_CODE = """\
import sys, citerank
print(citerank.__file__)
if len(sys.argv) > 1:
    from citerank.ingest import parse_affiliation, parse_publication, stream
    from citerank.linking import build_link_tables
    tables = build_link_tables(
        stream(sys.argv[1], parse_publication, sys.argv[3]),
        stream(sys.argv[2], parse_affiliation, sys.argv[3]),
    )
    print(len(tables.pub_to_institutions))
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and how to check what it wrote."""

    name: str
    args: tuple[str, ...]
    out: str
    lines_read: int
    check: Callable[[str], None]


@dataclass
class Child:
    wall: float
    rss_mib: float
    cpu: float
    code: int | None
    stdout: str
    stderr: str


class Spawner:
    """Runs children through ``spawner.py`` so their peak RSS is their own.

    Start it before building anything large: the helper's own high-water
    mark is the floor of every child's ``ru_maxrss``.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], env: dict[str, str], work: str) -> Child:
        """Run one child to completion; code is None when it timed out."""
        out_path = os.path.join(work, "child.stdout")
        err_path = os.path.join(work, "child.stderr")
        request = {"argv": argv, "cwd": work, "env": env, "stdout": out_path, "stderr": err_path,
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        result = json.loads(reply)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return Child(
            wall=result["wall"],
            rss_mib=result["maxrss_kib"] / 1024,
            cpu=result["cpu"],
            code=result["code"],
            stdout=stdout,
            stderr=stderr,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def workload_commands(corpus, out_dir: str) -> list[Command]:
    """The CLI invocations of one pass, writing into ``out_dir``."""
    if corpus.workload == "rank-store":
        store = corpus.files["store"]
        store_lines = corpus.lines["store"]
        full = os.path.join(out_dir, "rank_full.json")
        top = os.path.join(out_dir, "rank_top.md")
        corr = os.path.join(out_dir, "correlate.json")
        return [
            Command(
                "rank_full",
                ("rank", store, "--by", "si", "--format", "json", "--out", full),
                full,
                store_lines,
                lambda err: checks.check_rank_json(corpus, full, err),
            ),
            Command(
                "rank_top",
                ("rank", store, "--by", "usi", "--min-valenced", str(MIN_VALENCED),
                 "--top", str(TOP_K), "--format", "md", "--out", top),
                top,
                store_lines,
                lambda err: checks.check_rank_md(corpus, top, err, MIN_VALENCED, TOP_K),
            ),
            Command(
                "correlate",
                ("correlate", store, "--scores", corpus.files["scores"], "--by", "usi", "--out", corr),
                corr,
                store_lines + corpus.lines["scores"],
                lambda err: checks.check_correlate(corpus, corr),
            ),
        ]
    store = os.path.join(out_dir, f"{corpus.entity}.store.jsonl")
    aggregate = ["aggregate"]
    for name in ("statements", "references", "pubs", "affiliations"):
        aggregate += [f"--{name}", corpus.files[name]]
    first_year, last_year = corpus.window
    aggregate += ["--entity", corpus.entity, "--from-year", str(first_year), "--to-year", str(last_year),
                  "--mode", corpus.mode, "--out", store]
    if corpus.by_field:
        aggregate.append("--group-by-field")
    commands = [
        Command(
            "aggregate",
            tuple(aggregate),
            store,
            corpus.input_lines,
            lambda err: checks.check_store(corpus, store, err),
        )
    ]
    if corpus.by_field:
        fields_out = os.path.join(out_dir, "fields.csv")
        commands.append(
            Command(
                "fields",
                ("fields", store, "--format", "csv", "--out", fields_out),
                fields_out,
                len(corpus.tallies) + 1,
                lambda err: checks.check_breakdown(corpus, fields_out),
            )
        )
    return commands


class Bench:
    """Counts attempts and failures; a failure prints its reason to stderr."""

    def __init__(self, corpus, work: str, spawner: Spawner):
        self.corpus = corpus
        self.work = work
        self.spawner = spawner
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        # command name -> sha256 of its first output that passed the checks
        self.digests: dict[str, str] = {}

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {self.corpus.workload} {what}: {reason}", file=sys.stderr)

    # -- set-up ------------------------------------------------------------

    def setup_once(self, with_tables: bool) -> float:
        argv = [sys.executable, "-c", SETUP_CODE]
        corpus = self.corpus
        if with_tables:
            argv += [corpus.files["pubs"], corpus.files["affiliations"], corpus.mode]
        self.attempted += 1
        child = self.spawner.run(argv, self.env, self.work)
        lines = child.stdout.split()
        expected = [str(SRC / "citerank" / "__init__.py")]
        if with_tables:
            expected.append(str(corpus.lines["affiliations"] - corpus.skips["affiliations"][0]))
        if child.code != 0 or lines != expected:
            self.fail("setup", f"exit {child.code}, printed {lines}, expected {expected}")
        return child.wall

    # -- the closed loop ---------------------------------------------------

    def check_output(self, command: Command, stderr: str) -> None:
        """Full check until one passes; afterwards the bytes must not change."""
        produced = digest(command.out)
        first = self.digests.get(command.name)
        if first is None:
            try:
                command.check(stderr)
            except (checks.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.fail(command.name, f"output check: {exc!r}")
                return
            self.digests[command.name] = produced
        elif produced != first:
            self.fail(command.name, "output bytes differ from the checked run of this seed")

    def run_pass(self, commands: list[Command]) -> dict[str, Child]:
        results = {}
        for command in commands:
            self.attempted += 1
            argv = [sys.executable, "-m", "citerank.cli", *command.args]
            child = self.spawner.run(argv, self.env, self.work)
            results[command.name] = child
            if child.code != 0:
                self.fail(command.name, f"exit {child.code}: {child.stderr[-500:]}")
                continue
            self.check_output(command, child.stderr)
        return results


def measure(bench: Bench, seconds: float) -> tuple[list[float], list[dict[str, Child]], list[Command]]:
    """Alternate set-ups and passes of the commands until time is up.

    Interleaving puts set-up samples and pass samples in the same stretch
    of time, so a slow minute on a shared machine touches both alike.
    """
    with_tables = bench.corpus.workload != "rank-store"
    bench.setup_once(with_tables)  # untimed: compiles bytecode, warms the page cache
    out_dir = os.path.join(bench.work, "out")
    os.makedirs(out_dir)
    commands = workload_commands(bench.corpus, out_dir)
    setup, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup.extend(bench.setup_once(with_tables) for _ in range(SETUPS_PER_PASS))
        passes.append(bench.run_pass(commands))
    return setup, passes, commands


def end_to_end(setup: list[float], passes: list[dict[str, Child]], commands: list[Command]) -> dict:
    """Per-sample values of every end-to-end metric, by name.

    ``lines_per_s`` is the geometric mean of each command's own lines per
    second, so every command weighs the same however long it runs.
    """
    series = {
        "setup_s": setup,
        "lines_per_s": [
            math.exp(statistics.fmean(math.log(command.lines_read / run[command.name].wall) for command in commands))
            for run in passes
        ],
        "peak_rss_mib": [max(child.rss_mib for child in run.values()) for run in passes],
    }
    for command in commands:
        walls = [run[command.name].wall for run in passes]
        if command.name == "aggregate":
            series["aggregate_lines_per_s"] = [command.lines_read / wall for wall in walls]
        else:
            series[f"{command.name}_s"] = walls
    return series


UNITS = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mib": "MiB",
    "aggregate_lines_per_s": "lines/s",
    "fields_s": "s",
    "rank_full_s": "s",
    "rank_top_s": "s",
    "correlate_s": "s",
}


# -- the traced run ----------------------------------------------------------


def hs_index_sweep() -> float:
    """Every multiset of at most 12 counts valued up to 12, as in criterion 8."""
    from citerank.metrics import hs_index

    start = time.perf_counter()
    total = 0
    for length in range(13):
        for combo in itertools.combinations_with_replacement(range(13), length):
            hs_index(combo)
            total += 1
    elapsed = time.perf_counter() - start
    if total != 5_200_300:
        raise RuntimeError(f"hs_index sweep covered {total} multisets")
    return elapsed


def floors(paths: list[str]) -> tuple[float, float]:
    """Reading every input line, then reading plus json.loads: the stdlib floor."""
    start = time.perf_counter()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for _ in handle:
                pass
    read_s = time.perf_counter() - start
    start = time.perf_counter()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    json.loads(line)
                except json.JSONDecodeError:
                    pass
    return read_s, time.perf_counter() - start


def store_probes(store_path: str) -> dict[str, float]:
    """Scoring every tally and exporting the full si ranking in each format."""
    from citerank.aggregate import load_store
    from citerank.metrics import si, usi
    from citerank.rank import RankSpec, export_rows, rank_entities

    with open(store_path, encoding="utf-8") as handle:
        store = load_store(handle)
    probes = {}
    start = time.perf_counter()
    for tally in store.tallies.values():
        ratio = usi(tally.supporting, tally.contrasting)
        if ratio is not None:
            si(tally.references, ratio)
    probes["metrics.score_s"] = time.perf_counter() - start
    rows, _ = rank_entities(store, RankSpec(metric="si"))
    for fmt in ("json", "csv", "md"):
        start = time.perf_counter()
        export_rows(rows, fmt)
        probes[f"rank.export_{fmt}_s"] = time.perf_counter() - start
    return probes


def traced_replay(bench: Bench, passes: list[dict[str, Child]]):
    """Replay the commands in this process inside spans; check the same bytes."""
    import citerank.cli

    out_dir = os.path.join(bench.work, "replay")
    os.makedirs(out_dir)
    commands = workload_commands(bench.corpus, out_dir)
    tracer = spans.Tracer()
    gc.collect()
    gc.freeze()  # the benchmark's own objects are not the program's heap
    replaced = spans.patch_layers(tracer)
    try:
        with tracer:
            for command in commands:
                bench.attempted += 1
                log = io.StringIO()
                with redirect_stderr(log):
                    code = citerank.cli.main(list(command.args))
                if code != 0:
                    bench.fail(f"traced {command.name}", f"exit {code}")
                elif digest(command.out) != bench.digests.get(command.name):
                    bench.fail(f"traced {command.name}", "output bytes differ from the CLI run")
                elif log.getvalue() != passes[0][command.name].stderr:
                    bench.fail(f"traced {command.name}", "stderr log differs from the CLI run")
    finally:
        spans.unpatch(replaced)
        gc.unfreeze()
    return tracer, commands


def per_layer(bench: Bench, passes: list[dict[str, Child]]) -> tuple[dict[str, float], dict]:
    corpus = bench.corpus
    startup = statistics.median(bench.setup_once(with_tables=False) for _ in range(STARTUP_REPEATS))
    tracer, commands = traced_replay(bench, passes)
    stats = tracer.summary()
    notes = tracer.notes

    def total(prefix: str) -> float:
        return sum(stat.total for name, stat in stats.items() if name.startswith(prefix))

    def gc_in(prefix: str) -> float:
        return sum(stat.gc for name, stat in stats.items() if name.startswith(prefix))

    resolve_calls = stats["linking.resolve"].count if "linking.resolve" in stats else 0
    untraced = {
        command.name: statistics.median(run[command.name].wall for run in passes)
        for command in commands
    }
    main_span = stats["cli.main"]
    store_path = corpus.files["store"] if corpus.workload == "rank-store" else commands[0].out
    read_s, json_s = floors(list(corpus.files.values()))
    metrics = {
        "ingest.statements_s": total("ingest.stream[statements]"),
        "ingest.references_s": total("ingest.stream[references]"),
        "ingest.pubs_s": total("ingest.stream[pubs]"),
        "ingest.affiliations_s": total("ingest.stream[affiliations]"),
        "ingest.lines": notes.get("ingest.lines", 0),
        "ingest.skipped": notes.get("ingest.skipped", 0),
        "ingest.gc_s": gc_in("ingest."),
        "ingest.floor_read_s": read_s,
        "ingest.floor_json_s": json_s,
        "linking.build_s": total("linking.build_link_tables"),
        "linking.resolve_s": total("linking.resolve"),
        "linking.resolve_calls": resolve_calls,
        "linking.keys_per_resolve": notes.get("linking.keys", 0) / resolve_calls if resolve_calls else 0.0,
        "linking.pubs": notes.get("linking.pubs", 0),
        "aggregate.build_s": total("aggregate.build_store"),
        "aggregate.gc_s": gc_in("aggregate.build_store"),
        "aggregate.counted_ratio": (
            notes["aggregate.counted"] / notes["aggregate.seen"] if notes.get("aggregate.seen") else 0.0
        ),
        "aggregate.duplicate_ratio": (
            notes["aggregate.duplicate"] / notes["aggregate.events_seen"]
            if notes.get("aggregate.events_seen")
            else 0.0
        ),
        "aggregate.entities": notes.get("aggregate.entities", 0),
        "aggregate.distinct_pairs": notes.get("aggregate.distinct_pairs", 0),
        "aggregate.entities_flagged": notes.get("aggregate.entities_flagged", 0),
        "aggregate.dump_s": total("aggregate.dump_store"),
        "aggregate.store_bytes": notes.get("aggregate.store_bytes", 0),
        "aggregate.load_s": total("aggregate.load_store"),
        "metrics.pearson_s": total("metrics.pearson"),
        "metrics.hs_index_s": hs_index_sweep(),
        "rank.rank_s": total("rank.rank_entities"),
        "rank.rows": notes.get("rank.rows", 0),
        "rank.excluded": notes.get("rank.excluded", 0),
        "rank.breakdown_s": total("rank.field_breakdown"),
        "rank.export_breakdown_s": total("rank.export_breakdown"),
        "rank.correlate_s": total("rank.correlate"),
        "cli.startup_s": startup,
        "cli.aggregate_cpu_s": (
            statistics.median(run["aggregate"].cpu for run in passes) if "aggregate" in untraced else 0.0
        ),
        "cli.residual_s": sum(untraced.values()) - (main_span.total - main_span.self_time),
        # the untraced walls include one interpreter start per command, the
        # in-process replay none
        "cli.trace_overhead_s": main_span.total - (sum(untraced.values()) - len(untraced) * startup),
    }
    metrics.update(store_probes(store_path))
    return metrics, stats


def print_spans(stats) -> None:
    print(f"{'span':<40} {'calls':>8} {'total_s':>10} {'self_s':>10} {'gc_s':>9} {'self_gc_s':>9}")
    for name, stat in sorted(stats.items(), key=lambda item: -item[1].total):
        print(
            f"{name:<40} {stat.count:>8} {stat.total:>10.4f} {stat.self_time:>10.4f} "
            f"{stat.gc:>9.4f} {stat.self_gc:>9.4f}"
        )


# -- entry point -------------------------------------------------------------


def declared_metrics(kind: str) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json declares of one kind."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float, spawner: Spawner) -> dict:
    import corpus as corpus_module

    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    try:
        gen_start = time.perf_counter()
        corpus = corpus_module.generate(workload, seed, scale, work)
        print(f"# {workload} seed={seed} scale={scale}: {corpus.input_lines} input lines, "
              f"generated in {time.perf_counter() - gen_start:.1f} s (not timed)")
        print("# shares " + json.dumps({k: round(v, 4) for k, v in corpus.shares.items()}))
        bench = Bench(corpus, work, spawner)
        setup, passes, commands = measure(bench, seconds)
        series = end_to_end(setup, passes, commands)
        for name, values in series.items():
            q1, median, q3 = quartiles(values)
            print(f"{name}: {median:.6g} {UNITS[name]} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}) "
                  f"[{', '.join(f'{v:.4g}' for v in values)}]")
        print(f"error_rate: {bench.failed / bench.attempted:.6g} ({bench.failed}/{bench.attempted} commands)")
        if trace:
            metrics, stats = per_layer(bench, passes)
            print_spans(stats)
            declared = declared_metrics("per_layer")
            if set(metrics) != set(declared):
                raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")
            result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}
            for name, entry in result_metrics.items():
                print(f"{name}: {entry['value']:.6g} {entry['unit']}")
        else:
            result_metrics = {
                name: {"value": statistics.median(series[name]), "unit": unit}
                for name, unit in declared_metrics("end_to_end").items()
            }
        return {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": result_metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size multiplier")
    args = parser.parse_args(argv)
    if not (SRC / "citerank" / "__init__.py").is_file():
        print(f"error: no citerank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with Spawner() as spawner:  # first, while this process is small
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.scale, spawner) for w in workloads
        }
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": entry for w, r in results.items() for name, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
