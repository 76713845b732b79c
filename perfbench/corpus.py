"""Seeded synthetic corpora for the benchmark, with the results they must give.

Stdlib only, no downloads. The same (workload, seed, scale) always gives the
same bytes. Valid lines are written with citerank's own ``dump_*`` writers;
malformed lines are hand-built strings that every ``parse_*`` must reject.

The expected tallies and the diagnostics partition come from ``dict_walk``,
a single pass over the generated tuples that shares no code with
``citerank.linking`` or ``citerank.aggregate``. The generator knows exactly
which lines it spoiled, so the expected lenient skip reports are exact too.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from citerank.ingest import (
    AffiliationRecord,
    PublicationRecord,
    ReferenceEvent,
    StatementRecord,
    dump_affiliation,
    dump_publication,
    dump_reference,
    dump_statement,
)

WINDOW = (2024, 2024)
IN_WINDOW_YEAR = 2024
OUT_OF_WINDOW_YEARS = (2021, 2022, 2023, 2025)
STREAMS = ("statements", "references", "pubs", "affiliations")


@dataclass(frozen=True)
class StreamShape:
    """Sizes and shares of one aggregate workload at scale 1."""

    entity: str
    by_field: bool
    mode: str
    pubs: int
    journals: int
    institutions: int
    institutions_per_pub: tuple[int, int]
    fields: int
    statements: int
    references: int
    citing_works: int
    out_of_window: float
    unresolved: float
    duplicate: float
    malformed: float


SHAPES = {
    # statement-heavy, one journal key per record, a store of ~500 rows
    "journal-stream": StreamShape(
        entity="journal",
        by_field=False,
        mode="strict",
        pubs=20_000,
        journals=500,
        institutions=2_000,
        institutions_per_pub=(1, 2),
        fields=40,
        statements=100_000,
        references=28_000,
        citing_works=20_000,
        out_of_window=0.15,
        unresolved=0.03,
        duplicate=0.10,
        malformed=0.0,
    ),
    # reference-heavy, fan-out to 1-5 institutions, re-keyed per field
    "institution-fields": StreamShape(
        entity="institution",
        by_field=True,
        mode="lenient",
        pubs=13_000,
        journals=2_000,
        institutions=7_000,
        institutions_per_pub=(1, 5),
        fields=40,
        statements=25_000,
        references=50_000,
        citing_works=10_000,
        out_of_window=0.15,
        unresolved=0.03,
        duplicate=0.25,
        malformed=0.02,
    ),
}

# rank-store: entity rows of a plain institution store at scale 1
RANK_STORE_ROWS = 25_000
SCORES_COVERAGE = 0.6
SCORES_FOREIGN = 0.02


@dataclass
class Corpus:
    """Generated files plus everything the output checks compare against."""

    workload: str
    files: dict[str, str]
    lines: dict[str, int]
    # (entity id, field or None) -> (supporting, mentioning, contrasting, references)
    tallies: dict[tuple[str, str | None], tuple[int, int, int, int]]
    entity: str
    by_field: bool = False
    mode: str = "strict"
    window: tuple[int, int] = WINDOW
    diagnostics: dict[str, int] = field(default_factory=dict)
    # stream -> (skipped, first_bad_line)
    skips: dict[str, tuple[int, int | None]] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)

    @property
    def input_lines(self) -> int:
        return sum(self.lines.values())


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**exponent
        cum.append(total)
    return cum


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _year(rng: random.Random, out_of_window: float) -> int:
    if rng.random() < out_of_window:
        return rng.choice(OUT_OF_WINDOW_YEARS)
    return IN_WINDOW_YEAR


# Each entry spoils one line in a way the stream's parser must reject:
# bad JSON, a bool or out-of-range year, an unknown class, an empty id.
_MALFORMED = {
    "statements": (
        '{"citing_id":"C1","cited_id":"W1","citing_year":2024,"class":"supp',
        '{"citing_id":"C1","cited_id":"W1","citing_year":true,"class":"mentioning"}',
        '{"citing_id":"C1","cited_id":"W1","citing_year":1200,"class":"mentioning"}',
        '{"citing_id":"C1","cited_id":"W1","citing_year":2024,"class":"neutral"}',
        '{"citing_id":"","cited_id":"W1","citing_year":2024,"class":"supporting"}',
    ),
    "references": (
        '{"citing_id":"C1","cited_id":"W1",',
        '{"citing_id":"C1","cited_id":"W1","citing_year":false}',
        '{"citing_id":"C1","cited_id":"W1","citing_year":9999}',
        '{"citing_id":"C1","cited_id":"","citing_year":2024}',
    ),
    "pubs": (
        '{"id":"W1","journal_id":"J1"',
        '{"id":"W1","year":true}',
        '{"id":"W1","year":1200}',
        '{"id":"","journal_id":"J1"}',
    ),
    "affiliations": (
        '{"pub_id":"W1","institution_ids":["I1"]',
        '{"pub_id":"","institution_ids":["I1"]}',
        '{"pub_id":"W1","institution_ids":[""]}',
        '{"pub_id":"W1","institution_ids":"I1"}',
    ),
}


def _write_stream(
    path: str,
    valid_lines: list[str],
    rng: random.Random,
    malformed_share: float,
    bad_lines: tuple[str, ...],
) -> tuple[int, int, int | None]:
    """Write the lines with spoiled ones mixed in; (lines, skipped, first bad)."""
    n_bad = round(len(valid_lines) * malformed_share)
    total = len(valid_lines) + n_bad
    bad_positions = set(rng.sample(range(total), n_bad))
    first_bad = min(bad_positions) + 1 if bad_positions else None
    valid = iter(valid_lines)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for position in range(total):
            if position in bad_positions:
                handle.write(bad_lines[position % len(bad_lines)])
            else:
                handle.write(next(valid))
            handle.write("\n")
    return total, n_bad, first_bad


def dict_walk(pubs, affiliations, statements, references, entity, by_field):
    """Expected tallies and diagnostics partition, by a plain walk over tuples.

    ``pubs`` are (id, journal, field) and ``affiliations`` (pub id,
    institutions); ``statements`` (citing, cited, year, class) and
    ``references`` (citing, cited, year). Pub ids are unique.
    """
    journal_of = {pub_id: journal for pub_id, journal, _ in pubs if journal}
    field_of = {pub_id: label for pub_id, _, label in pubs if label}
    institutions_of = {pub_id: set(insts) for pub_id, insts in affiliations}
    lo, hi = WINDOW

    def credited(cited):
        if entity == "journal":
            ids = [journal_of[cited]] if cited in journal_of else []
        elif entity == "field":
            ids = [field_of[cited]] if cited in field_of else []
        else:
            ids = sorted(institutions_of.get(cited, ()))
        if not by_field:
            return [(entity_id, None) for entity_id in ids]
        label = field_of.get(cited)
        return [] if label is None else [(entity_id, label) for entity_id in ids]

    slot = {"supporting": 0, "mentioning": 1, "contrasting": 2}
    counts: dict[tuple[str, str | None], list[int]] = {}
    diag = dict.fromkeys(
        (
            "statements_seen",
            "statements_counted",
            "statements_out_of_window",
            "statements_unresolved",
            "events_seen",
            "events_counted",
            "events_out_of_window",
            "events_unresolved",
            "events_duplicate",
        ),
        0,
    )
    for _, cited, year, stance in statements:
        diag["statements_seen"] += 1
        if not lo <= year <= hi:
            diag["statements_out_of_window"] += 1
            continue
        keys = credited(cited)
        if not keys:
            diag["statements_unresolved"] += 1
            continue
        diag["statements_counted"] += 1
        for key in keys:
            counts.setdefault(key, [0, 0, 0, 0])[slot[stance]] += 1
    seen_pairs = set()
    for citing, cited, year in references:
        diag["events_seen"] += 1
        if not lo <= year <= hi:
            diag["events_out_of_window"] += 1
            continue
        keys = credited(cited)
        if not keys:
            diag["events_unresolved"] += 1
            continue
        if (citing, cited) in seen_pairs:
            diag["events_duplicate"] += 1
            continue
        seen_pairs.add((citing, cited))
        diag["events_counted"] += 1
        for key in keys:
            counts.setdefault(key, [0, 0, 0, 0])[3] += 1
    diag["out_of_window"] = diag["statements_out_of_window"] + diag["events_out_of_window"]
    diag["unresolved"] = diag["statements_unresolved"] + diag["events_unresolved"]
    return {key: tuple(values) for key, values in counts.items()}, diag


def generate_streams(workload: str, seed: int, scale: float, out_dir: str) -> Corpus:
    """Write the four input streams of an aggregate workload into ``out_dir``."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    n_pubs = _scaled(shape.pubs, scale)
    journals = [f"J{i}" for i in range(shape.journals)]
    institutions = [f"I{i}" for i in range(_scaled(shape.institutions, scale))]
    fields = [f"F{i}" for i in range(shape.fields)]
    journal_cum = _zipf_cum_weights(len(journals), 1.0)
    institution_cum = _zipf_cum_weights(len(institutions), 0.9)
    field_cum = _zipf_cum_weights(len(fields), 0.7)

    pub_ids = [f"W{i}" for i in range(n_pubs)]
    pub_journals = rng.choices(journals, cum_weights=journal_cum, k=n_pubs)
    pub_fields = rng.choices(fields, cum_weights=field_cum, k=n_pubs)
    pubs = [
        (pub_id, journal, label)
        for pub_id, journal, label in zip(pub_ids, pub_journals, pub_fields)
    ]
    lo, hi = shape.institutions_per_pub
    affiliations = [
        (pub_id, frozenset(rng.choices(institutions, cum_weights=institution_cum, k=rng.randint(lo, hi))))
        for pub_id in pub_ids
    ]
    # each cited work leans supporting or contrasting by its own degree
    support_bias = {pub_id: rng.uniform(0.45, 0.98) for pub_id in pub_ids}

    popularity = pub_ids[:]
    rng.shuffle(popularity)
    popularity_cum = _zipf_cum_weights(n_pubs, 0.8)
    n_citing = _scaled(shape.citing_works, scale)

    def cited_ids(k: int) -> list[str]:
        drawn = rng.choices(popularity, cum_weights=popularity_cum, k=k)
        return [
            f"X{rng.randrange(n_pubs)}" if rng.random() < shape.unresolved else cited
            for cited in drawn
        ]

    statements = []
    for cited in cited_ids(_scaled(shape.statements, scale)):
        if rng.random() < 0.6:
            stance = "mentioning"
        elif rng.random() < support_bias.get(cited, 0.7):
            stance = "supporting"
        else:
            stance = "contrasting"
        statements.append(
            (f"C{rng.randrange(n_citing)}", cited, _year(rng, shape.out_of_window), stance)
        )

    n_references = _scaled(shape.references, scale)
    n_repeats = round(n_references * shape.duplicate)
    references = [
        (f"C{rng.randrange(n_citing)}", cited, _year(rng, shape.out_of_window))
        for cited in cited_ids(n_references - n_repeats)
    ]
    references.extend(rng.choice(references) for _ in range(n_repeats))
    rng.shuffle(references)

    tallies, diagnostics = dict_walk(
        pubs, affiliations, statements, references, shape.entity, shape.by_field
    )

    valid = {
        "statements": [
            dump_statement(StatementRecord(citing, cited, year, stance))
            for citing, cited, year, stance in statements
        ],
        "references": [
            dump_reference(ReferenceEvent(citing, cited, year))
            for citing, cited, year in references
        ],
        "pubs": [
            dump_publication(PublicationRecord(pub_id, journal_id=journal, field=label))
            for pub_id, journal, label in pubs
        ],
        "affiliations": [
            dump_affiliation(AffiliationRecord(pub_id, insts))
            for pub_id, insts in affiliations
        ],
    }
    files, lines, skips = {}, {}, {}
    for name in STREAMS:
        path = os.path.join(out_dir, f"{name}.jsonl")
        total, skipped, first_bad = _write_stream(
            path, valid[name], rng, shape.malformed, _MALFORMED[name]
        )
        files[name], lines[name] = path, total
        skips[name] = (skipped, first_bad)

    in_window = diagnostics["statements_seen"] + diagnostics["events_seen"] - diagnostics["out_of_window"]
    resolved_events = (
        diagnostics["events_seen"] - diagnostics["events_out_of_window"] - diagnostics["events_unresolved"]
    )
    credited = sum(len(insts) for _, insts in affiliations) if shape.entity == "institution" else n_pubs
    shares = {
        "out_of_window": diagnostics["out_of_window"]
        / (diagnostics["statements_seen"] + diagnostics["events_seen"]),
        "unresolved": diagnostics["unresolved"] / in_window,
        "duplicate": diagnostics["events_duplicate"] / resolved_events,
        "malformed": sum(skipped for skipped, _ in skips.values()) / sum(lines.values()),
        "fan_out": credited / n_pubs,
        "statements_per_reference": len(statements) / len(references),
    }
    return Corpus(
        workload=workload,
        files=files,
        lines=lines,
        tallies=tallies,
        entity=shape.entity,
        by_field=shape.by_field,
        mode=shape.mode,
        diagnostics=diagnostics,
        skips=skips,
        shares=shares,
    )


def generate_rank_store(seed: int, scale: float, out_dir: str) -> Corpus:
    """Write a plain institution store and an external scores file."""
    rng = random.Random(f"rank-store:{seed}")
    n_rows = _scaled(RANK_STORE_ROWS, scale)
    tallies: dict[tuple[str, str | None], tuple[int, int, int, int]] = {}
    for i in range(n_rows):
        references = 0 if rng.random() < 0.05 else int(rng.paretovariate(1.1) * 4)
        statements = int(references * rng.uniform(0.3, 2.5)) + rng.randrange(3)
        if rng.random() < 0.08:
            supporting = contrasting = 0
        else:
            valenced = max(1, round(statements * rng.uniform(0.2, 0.6)))
            supporting = round(valenced * rng.uniform(0.4, 1.0))
            contrasting = valenced - supporting
        mentioning = max(0, statements - supporting - contrasting)
        tallies[(f"I{i:07d}", None)] = (supporting, mentioning, contrasting, references)

    store_path = os.path.join(out_dir, "institutions.store.jsonl")
    diagnostics = {
        "kind": "diagnostics",
        "statements_seen": sum(s + m + c for s, m, c, _ in tallies.values()),
        "statements_counted": sum(s + m + c for s, m, c, _ in tallies.values()),
        "events_seen": sum(t[3] for t in tallies.values()),
        "events_counted": sum(t[3] for t in tallies.values()),
    }
    with open(store_path, "w", encoding="utf-8", newline="\n") as handle:
        for (entity_id, _), (s, m, c, r) in sorted(tallies.items()):
            handle.write(
                '{"kind":"institution","id":"%s","supporting":%d,"mentioning":%d,'
                '"contrasting":%d,"references":%d}\n' % (entity_id, s, m, c, r)
            )
        handle.write(json.dumps(diagnostics, separators=(",", ":")) + "\n")

    scores: dict[str, float] = {}
    for (entity_id, _), (s, _, c, _) in tallies.items():
        if rng.random() < SCORES_COVERAGE:
            ratio = s / (s + c) if s + c else 0.5
            scores[entity_id] = round(2.0 * ratio + rng.gauss(0.0, 0.5), 6)
    for i in range(round(n_rows * SCORES_FOREIGN)):
        scores[f"X{i:07d}"] = round(rng.uniform(0.0, 3.0), 6)
    scores_path = os.path.join(out_dir, "scores.jsonl")
    with open(scores_path, "w", encoding="utf-8", newline="\n") as handle:
        for entity_id, value in scores.items():
            handle.write(json.dumps({"id": entity_id, "value": value}) + "\n")

    n_scores = len(scores)
    return Corpus(
        workload="rank-store",
        files={"store": store_path, "scores": scores_path},
        lines={"store": n_rows + 1, "scores": n_scores},
        tallies=tallies,
        entity="institution",
        scores=scores,
        shares={
            "no_valenced": sum(1 for s, _, c, _ in tallies.values() if s + c == 0) / n_rows,
            "zero_references": sum(1 for t in tallies.values() if t[3] == 0) / n_rows,
            "scored": sum(1 for key, _ in tallies if key in scores) / n_rows,
            "foreign_scores": round(n_rows * SCORES_FOREIGN) / n_scores,
        },
    )


def generate(workload: str, seed: int, scale: float, out_dir: str) -> Corpus:
    if workload == "rank-store":
        return generate_rank_store(seed, scale, out_dir)
    return generate_streams(workload, seed, scale, out_dir)
