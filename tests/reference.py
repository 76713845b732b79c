"""A slow, literal model of what citerank computes, for the tests to
compare against.

It imports nothing from ``citerank`` (``test_reference.py`` checks that),
and spells out each documented rule in the plainest way, not the fastest:

* ``fold``: the citing-year window, last-writer-wins linking, statements
  counted per occurrence and reference events once per (citing, cited)
  tuple, full counting over institutions, per-field grouping and the nine
  diagnostics counters;
* ``store_rows`` and ``store_text``: the store, one ``json.dumps`` row per
  entity, then the diagnostics row; ``read_store`` reads one back;
* ``rank``, ``breakdown`` and ``correlate``: what the ``rank``, ``fields``
  and ``correlate`` commands compute, ``si`` by the documented float
  formula ``(log10(r) + p·log10(u)) / log10(b)``;
* ``rank_table`` and ``breakdown_table``: the csv, json and markdown
  tables, through one writer per format.

A store is a dict from (kind, id, field) to (supporting, mentioning,
contrasting, references), with field None in a plain store.  Records are
tuples in the order of the input schemas.  A run the CLI refuses raises
``Refused`` with its exit code and message.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from decimal import ROUND_HALF_UP, Context, Decimal

STANCES = ("supporting", "mentioning", "contrasting")
COUNTERS = (*STANCES, "references")
DIAGNOSTICS = (
    "statements_seen", "statements_counted", "statements_out_of_window",
    "statements_unresolved", "events_seen", "events_counted", "events_out_of_window",
    "events_unresolved", "events_duplicate",
)
EXCLUSIONS = ("below_min_valenced", "below_min_references", "undefined_metric", "beyond_top_k")
RANK_COLUMNS = (
    "kind", "id", *COUNTERS, "usi_exact", "si_exact", "usi_display", "si_display", "rank",
)
BREAKDOWN_COLUMNS = ("institution", "field", *COUNTERS, "usi_exact", "si_exact")

Ranked = namedtuple("Ranked", ["rank", "kind", "id", *COUNTERS, "usi", "si"])
Cell = namedtuple("Cell", ["institution", "field", *COUNTERS, "usi", "si"])


class Refused(Exception):
    """A run the CLI ends with ``error: <message>`` and exit ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def fold(pubs, affiliations, statements, references, window, kind, by_field=False):
    """(store, diagnostics) from pubs (id, journal, field, year), affiliations
    (pub id, institution ids), statements (citing, cited, year, class) and
    references (citing, cited, year), over the inclusive (first, last)
    citing-year ``window``."""
    journal_of, field_of, institutions_of = {}, {}, {}
    for pub_id, journal, field, _ in pubs:
        # a repeated id replaces the earlier record wholesale
        journal_of.pop(pub_id, None)
        field_of.pop(pub_id, None)
        if journal is not None:
            journal_of[pub_id] = journal
        if field is not None:
            field_of[pub_id] = field
    for pub_id, institutions in affiliations:
        institutions_of[pub_id] = sorted(institutions)

    def credited(cited):
        """The keys a citation of ``cited`` counts for, each in full."""
        if kind == "institution":
            names = institutions_of.get(cited, [])
        elif kind == "journal":
            names = [journal_of[cited]] if cited in journal_of else []
        else:
            names = [field_of[cited]] if cited in field_of else []
        if not by_field:
            return [(kind, name, None) for name in names]
        if cited not in field_of:
            return []
        return [(kind, name, field_of[cited]) for name in names]

    store = {}
    diagnostics = dict.fromkeys(DIAGNOSTICS, 0)
    for citing, cited, year, stance in statements:
        diagnostics["statements_seen"] += 1
        if not window[0] <= year <= window[1]:
            diagnostics["statements_out_of_window"] += 1
        elif not credited(cited):
            diagnostics["statements_unresolved"] += 1
        else:
            diagnostics["statements_counted"] += 1
            for key in credited(cited):
                store.setdefault(key, [0, 0, 0, 0])[STANCES.index(stance)] += 1
    pairs = set()
    for citing, cited, year in references:
        diagnostics["events_seen"] += 1
        if not window[0] <= year <= window[1]:
            diagnostics["events_out_of_window"] += 1
        elif not credited(cited):
            diagnostics["events_unresolved"] += 1
        elif (citing, cited) in pairs:
            diagnostics["events_duplicate"] += 1
        else:
            pairs.add((citing, cited))
            diagnostics["events_counted"] += 1
            for key in credited(cited):
                store.setdefault(key, [0, 0, 0, 0])[3] += 1
    return {key: tuple(counts) for key, counts in store.items()}, diagnostics


def store_rows(store, diagnostics):
    """The store's rows as dicts: entity rows sorted by (kind, id, field),
    then the diagnostics row, which adds ``out_of_window`` and ``unresolved``."""
    rows = []
    for kind, entity_id, field in sorted(store, key=lambda key: (key[0], key[1], key[2] or "")):
        row = {"kind": kind, "id": entity_id}
        if field is not None:
            row["field"] = field
        row.update(zip(COUNTERS, store[kind, entity_id, field]))
        rows.append(row)
    row = {"kind": "diagnostics", **diagnostics}
    for total in ("out_of_window", "unresolved"):
        row[total] = diagnostics[f"statements_{total}"] + diagnostics[f"events_{total}"]
    return [*rows, row]


def store_text(store, diagnostics):
    rows = store_rows(store, diagnostics)
    return "".join(json.dumps(row, separators=(",", ":"), ensure_ascii=False) + "\n" for row in rows)


def read_store(text, path):
    """(store, diagnostics) from a store's text.  Of the loader's checks it
    models two that a file of well-formed rows can fail: only a line of
    JSON whitespace is blank, and per-field rows must be of kind
    institution."""
    store, diagnostics = {}, None
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip(" \t\r") == "":
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise Refused(2, f"{path}:{line_no}: invalid JSON: {exc.msg}") from None
        if row["kind"] == "diagnostics":
            diagnostics = {name: row.get(name, 0) for name in DIAGNOSTICS}
        elif row.get("field") is not None and row["kind"] != "institution":
            raise Refused(
                2, f"{path}:{line_no}: per-field rows need kind 'institution', got {row['kind']!r}"
            )
        else:
            store[row["kind"], row["id"], row.get("field")] = tuple(row[name] for name in COUNTERS)
    return store, diagnostics


def scores(counts, exponent=2.0, log_base=10.0):
    """(usi, si) of a tally; None where undefined."""
    supporting, _, contrasting, references = counts
    if supporting + contrasting == 0:
        return None, None
    usi = supporting / (supporting + contrasting)
    if references == 0 or usi == 0:
        return usi, None
    si = (math.log10(references) + exponent * math.log10(usi)) / math.log10(log_base)
    if not math.isfinite(si):
        raise Refused(
            2,
            f"si is not finite ({si!r}) for references={references}, usi={usi!r}, "
            f"exponent={exponent!r}, log_base={log_base!r}",
        )
    return usi, si


def require_plain(store, command):
    if any(field is not None for _, _, field in store):
        raise Refused(1, f"store has per-field grouping; {command} needs a plain store")


def rank(store, metric="si", kind=None, min_valenced=0, min_references=0, top=None,
         exponent=2.0, log_base=10.0):
    """(rows, exclusions) of ``citerank rank``: each entity lands in the
    first exclusion it fails, else in a row; rows go by the exact metric
    descending, then id."""
    require_plain(store, "rank")
    exclusions = dict.fromkeys(EXCLUSIONS, 0)
    scored = []
    for (store_kind, entity_id, _), counts in store.items():
        if kind is not None and store_kind != kind:
            raise Refused(1, f"spec expects kind {kind!r} but store holds {store_kind!r}")
        supporting, _, contrasting, references = counts
        if supporting + contrasting < min_valenced:
            exclusions["below_min_valenced"] += 1
            continue
        if references < min_references:
            exclusions["below_min_references"] += 1
            continue
        usi, si = scores(counts, exponent, log_base)
        value = usi if metric == "usi" else si
        if value is None:
            exclusions["undefined_metric"] += 1
            continue
        scored.append((value, entity_id, Ranked(0, store_kind, entity_id, *counts, usi, si)))
    scored.sort(key=lambda item: (-item[0], item[1]))
    if top is not None and len(scored) > top:
        exclusions["beyond_top_k"] = len(scored) - top
        scored = scored[:top]
    rows = [row._replace(rank=position) for position, (_, _, row) in enumerate(scored, start=1)]
    return rows, exclusions


def breakdown(store, exponent=2.0, log_base=10.0):
    """(cells, undefined) of ``citerank fields``: each (institution, field)
    with a defined si, by field, then si descending, then institution; and
    the number of cells whose si is undefined."""
    if any(kind != "institution" or field is None for kind, _, field in store):
        raise Refused(1, "fields needs a per-field institution store")
    cells = []
    for (_, institution, field), counts in store.items():
        usi, si = scores(counts, exponent, log_base)
        if si is not None:
            cells.append(Cell(institution, field, *counts, usi, si))
    cells.sort(key=lambda cell: (cell.field, -cell.si, cell.institution))
    return cells, len(store) - len(cells)


def correlate(store, external, metric="usi", exponent=2.0, log_base=10.0):
    """What ``citerank correlate`` prints: Pearson's r over the ranked rows
    that ``external`` names, in ranking order, and the match counts."""
    require_plain(store, "correlate")
    rows, _ = rank(store, metric, exponent=exponent, log_base=log_base)
    points = [(getattr(row, metric), float(external[row.id])) for row in rows if row.id in external]
    return {
        "r": pearson(points),
        "matched": len(points),
        "unmatched_rows": len(rows) - len(points),
        "unmatched_external": len(external) - len(points),
    }


def pearson(points):
    """Two-pass sample correlation, clamped to [-1, 1].  Each coordinate is
    first scaled by the power of two that brings its largest magnitude into
    [0.5, 1), which changes no bit of r and keeps every sum finite."""
    if len(points) < 2:
        raise Refused(2, f"correlation needs at least 2 pairs, got {len(points)}")
    scaled = []
    for column in zip(*points):
        if min(column) == max(column):
            raise Refused(2, "correlation undefined: a coordinate has zero variance")
        shift = -math.frexp(max(map(abs, column)))[1]
        scaled.append([math.ldexp(value, shift) for value in column])
    xs, ys = scaled
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        sxx += (x - mean_x) * (x - mean_x)
        syy += (y - mean_y) * (y - mean_y)
        sxy += (x - mean_x) * (y - mean_y)
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def display(value):
    """Two decimals of the shortest repr, ties away from zero; '' for None."""
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP, Context(prec=400)))


def md_text(text):
    """A markdown cell: ``|`` escaped, each line break (CRLF, CR or LF) ``<br>``."""
    text = text.replace("|", "\\|")
    return text.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")


def rank_table(rows, fmt):
    cells = [(*row[1:], display(row.usi), display(row.si), row.rank) for row in rows]
    markdown = [
        (md_text(row.id), *(f"{count:,}" for count in row[3:6]), display(row.usi),
         display(row.si) or "n/a")
        for row in rows
    ]
    header = (
        "| Entity | Supporting | Mentioning | Contrasting | USI | SI |",
        "| :-- | --: | --: | --: | --: | --: |",
    )
    return write_table(fmt, RANK_COLUMNS, cells, header, markdown)


def breakdown_table(rows, fmt):
    markdown = [
        (md_text(row.institution), md_text(row.field), *(f"{count:,}" for count in row[2:6]),
         display(row.usi), display(row.si))
        for row in rows
    ]
    header = (
        "| Institution | Field | Supporting | Mentioning | Contrasting | References | USI | SI |",
        "| :-- | :-- | --: | --: | --: | --: | --: | --: |",
    )
    return write_table(fmt, BREAKDOWN_COLUMNS, rows, header, markdown)


def write_table(fmt, columns, cells, md_header, md_cells):
    """One table in ``fmt``: json from ``json.dumps``, csv from ``csv.writer``
    (a number as its repr, None as an empty cell), markdown from its cells."""
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in cells]
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        # CRLF rows make csv.writer quote a cell holding CR as well as one
        # holding LF; each row then ends in LF
        lines = []
        for row in [columns, *cells]:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\r\n").writerow(row)
            lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
        return "".join(lines)
    rows = ["| " + " | ".join(row) + " |" for row in md_cells]
    return "\n".join([*md_header, *rows]) + "\n"
