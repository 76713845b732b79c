"""Ranked tables, per-field breakdowns, and external-score correlation.

Sorting always uses exact metric values; the two-decimal display strings
are derived afterwards and never influence order.  Ties on the exact metric
break by entity id ascending, so a ranking is a pure function of the store
and the RankSpec.  Every entity in the store lands either in the output rows
or in exactly one bucket of the exclusion report.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import IO, Any, Callable, Mapping, NamedTuple, Sequence

from .aggregate import Store, _tally_counts
from .errors import ConfigError
from .ingest import _json_keys, _json_members
from .linking import EntityKey
from .metrics import DEFAULT_SI_CONFIG, EntityTally, SiConfig, pearson, si, usi

__all__ = [
    "METRICS",
    "FORMATS",
    "RankSpec",
    "RankedRow",
    "ExclusionReport",
    "CorrelationResult",
    "round_display",
    "rank_entities",
    "field_breakdown",
    "correlate",
    "export_rows",
    "write_rows",
    "write_breakdown",
]

METRICS = ("si", "usi")
FORMATS = ("csv", "json", "md")


@dataclass(frozen=True, slots=True)
class RankSpec:
    """What to rank and what to filter out before ranking."""

    metric: str = "si"
    kind: str | None = None
    min_valenced: int = 0
    min_references: int = 0
    top_k: int | None = None
    si_config: SiConfig = DEFAULT_SI_CONFIG

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.min_valenced < 0 or self.min_references < 0:
            raise ConfigError("thresholds must be >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")


class RankedRow(NamedTuple):
    """One entity in a ranked table; rank is its 1-based row number, so
    exact ties get consecutive ranks, ordered by id.

    The display strings are derived from the exact values on each access,
    so only rows that are printed pay for rounding.
    """

    rank: int
    entity: EntityKey
    tally: EntityTally
    usi_exact: float
    si_exact: float | None

    @property
    def usi_display(self) -> str:
        return round_display(self.usi_exact)

    @property
    def si_display(self) -> str:
        return round_display(self.si_exact)


@dataclass(slots=True)
class ExclusionReport:
    """Why entities in the store are absent from the emitted rows.

    rows + every bucket here partitions the store exactly; an entity failing
    several filters lands in the first bucket that rejected it, in the order
    the fields are declared.
    """

    below_min_valenced: int = 0
    below_min_references: int = 0
    undefined_metric: int = 0
    beyond_top_k: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, spec.name) for spec in fields(ExclusionReport))


_CENT = Decimal("0.01")
# enough digits to quantize the largest finite float to two decimals
_DISPLAY_CONTEXT = Context(prec=sys.float_info.max_10_exp + 3)


def round_display(value: float | None) -> str:
    """Two-decimal display string, ties rounding away from zero.

    Via Decimal(repr(x)) so the decision happens on the shortest decimal
    form of the float, not on binary artifacts several digits down.
    None (undefined score) displays as the empty string.
    """
    if value is None:
        return ""
    return str(
        Decimal(repr(value)).quantize(_CENT, rounding=ROUND_HALF_UP, context=_DISPLAY_CONTEXT)
    )


def _scores(tally: EntityTally, si_config: SiConfig) -> tuple[float | None, float | None]:
    """The tally's usi and si; si is None whenever usi is."""
    usi_value = usi(tally.supporting, tally.contrasting)
    if usi_value is None:
        return None, None
    return usi_value, si(tally.references, usi_value, si_config)


def require_plain_store(store: Store, command: str) -> None:
    """Raise ConfigError if the store has field-labelled keys, which would
    give ``command`` each id once per field."""
    if any(key.field is not None for key in store.tallies):
        raise ConfigError(f"store has per-field grouping; {command} needs a plain store")


def rank_entities(
    store: Store, spec: RankSpec
) -> tuple[list[RankedRow], ExclusionReport]:
    """Rank the store's entities by the chosen metric, descending.

    Filters run before scoring: entities below min_valenced or
    min_references are excluded and counted, entities whose chosen metric is
    undefined are excluded and counted, and with top_k the tail beyond k is
    counted too.  Output order is exact metric descending, then entity id
    ascending (then field label, for per-field stores).
    """
    report = ExclusionReport()
    scored: list[tuple[float, EntityKey, EntityTally, float, float | None]] = []
    for key, tally in store.tallies.items():
        if spec.kind is not None and key.kind != spec.kind:
            raise ConfigError(f"spec expects kind {spec.kind!r} but store holds {key.kind!r}")
        if tally.valenced < spec.min_valenced:
            report.below_min_valenced += 1
            continue
        if tally.references < spec.min_references:
            report.below_min_references += 1
            continue
        usi_value, si_value = _scores(tally, spec.si_config)
        metric_value = usi_value if spec.metric == "usi" else si_value
        if metric_value is None:
            report.undefined_metric += 1
            continue
        scored.append((metric_value, key, tally, usi_value, si_value))

    scored.sort(key=lambda item: (-item[0], item[1].id, item[1].field or ""))
    if spec.top_k is not None and len(scored) > spec.top_k:
        report.beyond_top_k = len(scored) - spec.top_k
        scored = scored[: spec.top_k]

    rows = [
        RankedRow(position, key, tally, usi_value, si_value)
        for position, (_, key, tally, usi_value, si_value) in enumerate(scored, start=1)
    ]
    return rows, report


def field_breakdown(
    store: Store, si_config: SiConfig = DEFAULT_SI_CONFIG
) -> list[RankedRow]:
    """The si ranking of a per-field institution store, grouped by field label.

    Any other store, plain or of another kind, is refused; an empty store
    gives no rows.  Cells without a defined score (no valenced statements, or
    zero usi or references) are dropped: the breakdown is plot-ready data,
    and those cells would have no position on a score axis.  Sorted by field
    label, then score descending, then entity id.  A row's ``rank`` is its
    place in the whole store's si order; no table prints it.
    """
    if any(key.kind != "institution" or key.field is None for key in store.tallies):
        raise ConfigError("fields needs a per-field institution store")
    rows, _ = rank_entities(store, RankSpec(si_config=si_config))
    # stable, so each field keeps the ranking's (si descending, id) order
    rows.sort(key=lambda row: row.entity.field)
    return rows


@dataclass(slots=True)
class CorrelationResult:
    """Correlation of a store's scores against an external per-entity score."""

    r: float
    matched: int
    unmatched_rows: int
    unmatched_external: int


def correlate(
    store: Store,
    external: Mapping[str, float],
    metric: str = "usi",
    si_config: SiConfig = DEFAULT_SI_CONFIG,
) -> CorrelationResult:
    """Pearson correlation between a store's chosen metric and external scores.

    Matching is by entity id, so a per-field store is rejected.  Entities
    with an undefined metric are left out; those without an external value
    are counted, and so are external ids that match no scored entity,
    ids of entities whose metric is undefined included.  Raises DataError
    where ``si`` or ``pearson`` does.
    """
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    require_plain_store(store, "correlate")
    matched: list[tuple[float, str, float]] = []
    defined = 0
    # not through rank_entities, which would sort and build a row for every
    # scored entity, where correlate needs to sort only the matched points
    for key, tally in store.tallies.items():
        usi_value, si_value = _scores(tally, si_config)
        value = usi_value if metric == "usi" else si_value
        if value is None:
            continue
        defined += 1
        outside = external.get(key.id)
        if outside is not None:
            matched.append((value, key.id, float(outside)))
    # summed in ranking order, so r's last bits never follow the store's row order
    matched.sort(key=lambda item: (-item[0], item[1]))
    return CorrelationResult(
        r=pearson([(value, outside) for value, _, outside in matched]),
        matched=len(matched),
        unmatched_rows=defined - len(matched),
        unmatched_external=len(external) - len(matched),
    )


# -- exports ---------------------------------------------------------------
#
# All three formats are deterministic byte-for-byte for a given row list.
# ``write_rows`` and ``write_breakdown`` write a table to a text handle row
# by row; ``export_rows`` returns the ranked table's text.
# csv and json carry exact values (repr round-trips them losslessly); the
# markdown table is the human view and shows display strings only.
#
# Each table names its columns once, and csv and json write the same cells:
# str, int, finite float or None.  csv writes a number as its repr and None
# as an empty cell, and quotes a string holding a comma, a quote, CR or LF.
# json writes ``json.dumps(rows, indent=2, ensure_ascii=False)`` and a newline.


class _Table(NamedTuple):
    columns: tuple[str, ...]
    cells: Callable[[Any], tuple]
    md_header: str
    md_cells: Callable[[Any], tuple[str, ...]]


def _csv_text(text: str) -> str:
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(cells: Sequence) -> str:
    texts = [_csv_text(v) if type(v) is str else "" if v is None else repr(v) for v in cells]
    return ",".join(texts) + "\n"


def _write_table(table: _Table, rows: Sequence, fmt: str, out: IO[str]) -> None:
    """Write each row to ``out`` as soon as it is formatted, so memory
    holds one row's text at a time however long the table is."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "csv":
        out.write(_csv_line(table.columns))
        for row in rows:
            out.write(_csv_line(table.cells(row)))
    elif fmt == "json":
        if not rows:
            out.write("[]\n")
            return
        keys = _json_keys(table.columns, ": ")
        opening = "[\n  {\n    "
        for row in rows:
            out.write(opening + _json_members(keys, table.cells(row), ",\n    "))
            opening = "\n  },\n  {\n    "
        out.write("\n  }\n]\n")
    else:
        out.write(table.md_header + "\n")
        for row in rows:
            out.write("| " + " | ".join(table.md_cells(row)) + " |\n")


def _md_escape(text: str) -> str:
    """A pipe would end the cell and a line break the row; GitHub-flavored
    Markdown renders ``<br>`` as a break inside the cell."""
    text = text.replace("|", "\\|")
    return text.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")


_RANK_TABLE = _Table(
    columns=(
        "kind", "id", "supporting", "mentioning", "contrasting", "references",
        "usi_exact", "si_exact", "usi_display", "si_display", "rank",
    ),
    cells=lambda row: (
        row.entity.kind,
        row.entity.id,
        *_tally_counts(row.tally),
        row.usi_exact,
        row.si_exact,
        row.usi_display,
        row.si_display,
        row.rank,
    ),
    md_header=(
        "| Entity | Supporting | Mentioning | Contrasting | USI | SI |\n"
        "| :-- | --: | --: | --: | --: | --: |"
    ),
    md_cells=lambda row: (
        _md_escape(row.entity.id),
        *(f"{count:,}" for count in _tally_counts(row.tally)[:3]),
        row.usi_display,
        row.si_display or "n/a",
    ),
)

_BREAKDOWN_TABLE = _Table(
    columns=(
        "institution", "field", "supporting", "mentioning", "contrasting",
        "references", "usi_exact", "si_exact",
    ),
    cells=lambda row: (
        row.entity.id,
        row.entity.field,
        *_tally_counts(row.tally),
        row.usi_exact,
        row.si_exact,
    ),
    md_header=(
        "| Institution | Field | Supporting | Mentioning | Contrasting | References | USI | SI |\n"
        "| :-- | :-- | --: | --: | --: | --: | --: | --: |"
    ),
    md_cells=lambda row: (
        _md_escape(row.entity.id),
        _md_escape(row.entity.field),
        *(f"{count:,}" for count in _tally_counts(row.tally)),
        row.usi_display,
        row.si_display,
    ),
)


def export_rows(rows: list[RankedRow], fmt: str) -> str:
    buffer = io.StringIO()
    _write_table(_RANK_TABLE, rows, fmt, buffer)
    return buffer.getvalue()


def write_rows(rows: Sequence[RankedRow], fmt: str, out: IO[str]) -> None:
    """Write what ``export_rows`` returns to ``out``, row by row."""
    _write_table(_RANK_TABLE, rows, fmt, out)


def write_breakdown(rows: Sequence[RankedRow], fmt: str, out: IO[str]) -> None:
    """Write the per-field breakdown table to ``out``, row by row."""
    _write_table(_BREAKDOWN_TABLE, rows, fmt, out)
