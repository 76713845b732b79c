"""Output checks: every command's result is compared with the corpus oracle.

Each check raises CheckError with a reason; the caller counts the command
as failed. Nothing here imports citerank: the expected values come from the
generator's own dict-walk and from the stdlib.
"""

from __future__ import annotations

import csv
import json
import math
import statistics

SI_TOLERANCE = 1e-9
R_TOLERANCE = 1e-9


class CheckError(Exception):
    pass


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


def events(stderr_text: str) -> dict[str, list[dict]]:
    """The stderr JSON-lines log, grouped by event name."""
    grouped: dict[str, list[dict]] = {}
    for line in stderr_text.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "event" in record:
            grouped.setdefault(record["event"], []).append(record)
    return grouped


def _one(grouped: dict[str, list[dict]], name: str) -> dict:
    found = grouped.get(name, [])
    _expect(len(found) == 1, f"expected one {name!r} event, got {len(found)}")
    return {k: v for k, v in found[0].items() if k != "event"}


def _si(references: int, ratio: float) -> float | None:
    if references == 0 or ratio == 0.0:
        return None
    return math.log10(references * ratio * ratio)


def check_store(corpus, store_path: str, stderr_text: str) -> None:
    """An aggregate store and its log against the oracle."""
    rows: dict[tuple[str, str | None], tuple[int, int, int, int]] = {}
    diagnostics = None
    with open(store_path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if row["kind"] == "diagnostics":
                diagnostics = {k: v for k, v in row.items() if k != "kind"}
                continue
            _expect(row["kind"] == corpus.entity, f"row of kind {row['kind']!r}")
            key = (row["id"], row.get("field"))
            _expect(key not in rows, f"duplicate store row {key}")
            rows[key] = (
                row["supporting"],
                row["mentioning"],
                row["contrasting"],
                row["references"],
            )
    _expect(diagnostics == corpus.diagnostics, "store diagnostics differ from the oracle")
    _expect(len(rows) == len(corpus.tallies), f"{len(rows)} store rows, expected {len(corpus.tallies)}")
    for key, expected in corpus.tallies.items():
        _expect(rows.get(key) == expected, f"tally of {key}: {rows.get(key)} != {expected}")

    grouped = events(stderr_text)
    _expect(_one(grouped, "aggregate") == corpus.diagnostics, "aggregate event differs from the oracle")
    links = _one(grouped, "link_tables")
    _expect(
        links == {"publication_overwrites": 0, "affiliation_overwrites": 0},
        f"unexpected link_tables event {links}",
    )
    if corpus.mode == "lenient":
        reports = {record["file"]: record for record in grouped.get("ingest", [])}
        for name, (skipped, first_bad) in corpus.skips.items():
            report = reports.get(corpus.files[name])
            _expect(report is not None, f"no ingest event for {name}")
            _expect(
                (report["skipped"], report["first_bad_line"]) == (skipped, first_bad),
                f"{name}: skip report {report}, expected {(skipped, first_bad)}",
            )
    # entities_flagged is a property of the data, not a failure
    _one(grouped, "consistency")


def check_breakdown(corpus, csv_path: str) -> None:
    """fields --format csv: every defined (institution, field) cell, in order."""
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _expect(
        rows[0] == "institution,field,supporting,mentioning,contrasting,references,usi_exact,si_exact".split(","),
        "breakdown header changed",
    )
    body = rows[1:]
    expected_count = 0
    for (_, label), (s, _, c, r) in corpus.tallies.items():
        if label is not None and s > 0 and r > 0:
            expected_count += 1
    _expect(len(body) == expected_count, f"{len(body)} breakdown rows, expected {expected_count}")
    order = []
    for inst, label, s, m, c, r, usi_text, si_text in body:
        counts = (int(s), int(m), int(c), int(r))
        _expect(corpus.tallies.get((inst, label)) == counts, f"breakdown counts of {inst}/{label}")
        ratio = counts[0] / (counts[0] + counts[2])
        _expect(float(usi_text) == ratio, f"usi_exact of {inst}/{label}")
        si_value = float(si_text)
        _expect(abs(si_value - _si(counts[3], ratio)) <= SI_TOLERANCE, f"si_exact of {inst}/{label}")
        order.append((label, -si_value, inst))
    _expect(order == sorted(order), "breakdown rows out of order")


def check_rank_json(corpus, json_path: str, stderr_text: str) -> None:
    """rank --by si --format json: exact values, order, and the exclusion partition."""
    with open(json_path, encoding="utf-8") as handle:
        rows = json.load(handle)
    order = []
    for position, row in enumerate(rows, start=1):
        key = (row["id"], row.get("field"))
        counts = (row["supporting"], row["mentioning"], row["contrasting"], row["references"])
        _expect(corpus.tallies.get(key) == counts, f"rank counts of {key}")
        _expect(row["rank"] == position, f"rank {row['rank']} at position {position}")
        ratio = counts[0] / (counts[0] + counts[2])
        _expect(row["usi_exact"] == ratio, f"usi_exact of {key}")
        _expect(abs(row["si_exact"] - _si(counts[3], ratio)) <= SI_TOLERANCE, f"si_exact of {key}")
        order.append((-row["si_exact"], row["id"]))
    _expect(order == sorted(order), "rank rows not sorted by si_exact desc, then id")
    undefined = sum(1 for s, _, c, r in corpus.tallies.values() if s == 0 or r == 0)
    exclusions = _one(events(stderr_text), "exclusions")
    _expect(exclusions["undefined_metric"] == undefined, f"undefined_metric {exclusions}")
    _expect(
        len(rows) + sum(exclusions.values()) == len(corpus.tallies),
        "rank rows plus exclusions do not cover the store",
    )


def _md_cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split(" | ")]


def check_rank_md(corpus, md_path: str, stderr_text: str, min_valenced: int, top: int) -> None:
    """rank --by usi --min-valenced k --top n --format md: the expected top rows."""
    eligible = sorted(
        (-(s / (s + c)), entity_id, (s, m, c))
        for (entity_id, _), (s, m, c, _) in corpus.tallies.items()
        if s + c >= min_valenced and s + c > 0
    )
    with open(md_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    body = [_md_cells(line) for line in lines[2:]]
    expected = eligible[:top]
    _expect(len(body) == len(expected), f"{len(body)} md rows, expected {len(expected)}")
    for cells, (neg_ratio, entity_id, (s, m, c)) in zip(body, expected):
        _expect(cells[0] == entity_id, f"md row {cells[0]}, expected {entity_id}")
        _expect(
            [int(cell.replace(",", "")) for cell in cells[1:4]] == [s, m, c],
            f"md counts of {entity_id}",
        )
        _expect(abs(float(cells[4]) + neg_ratio) <= 0.005 + 1e-12, f"md usi of {entity_id}")
    exclusions = _one(events(stderr_text), "exclusions")
    below = sum(1 for s, _, c, _ in corpus.tallies.values() if s + c < min_valenced)
    _expect(exclusions["below_min_valenced"] == below, f"below_min_valenced {exclusions}")
    _expect(
        len(body) + sum(exclusions.values()) == len(corpus.tallies),
        "md rows plus exclusions do not cover the store",
    )


def check_correlate(corpus, json_path: str) -> None:
    """correlate --by usi: r against statistics.correlation, and the match counts."""
    with open(json_path, encoding="utf-8") as handle:
        result = json.load(handle)
    xs, ys = [], []
    defined = 0
    for (entity_id, _), (s, _, c, _) in corpus.tallies.items():
        if s + c == 0:
            continue
        defined += 1
        if entity_id in corpus.scores:
            xs.append(s / (s + c))
            ys.append(corpus.scores[entity_id])
    expected_r = statistics.correlation(xs, ys)
    _expect(abs(result["r"] - expected_r) <= R_TOLERANCE, f"r {result['r']} != {expected_r}")
    _expect(result["matched"] == len(xs), f"matched {result['matched']} != {len(xs)}")
    _expect(result["unmatched_rows"] == defined - len(xs), "unmatched_rows")
    _expect(result["unmatched_external"] == len(corpus.scores) - len(xs), "unmatched_external")
