"""Ranked tables, per-field breakdowns, and external-score correlation.

Sorting always uses exact metric values; the two-decimal display strings
are derived afterwards and never influence order.  Ties on the exact metric
break by entity id ascending, so a ranking is a pure function of the store
and the RankSpec.  Every entity in the store lands either in the output rows
or in exactly one bucket of the exclusion report.
"""

from __future__ import annotations

import io
from json.encoder import encode_basestring as _quote
from typing import IO, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from ._record import Checked, Record
from .aggregate import Store
from .errors import ConfigError
from .linking import EntityKey
from .metrics import DEFAULT_SI_CONFIG, EntityTally, SiConfig, pearson, si, tally_counts, usi

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


class _RankSpecFields(NamedTuple):
    metric: str = "si"
    kind: str | None = None
    min_valenced: int = 0
    min_references: int = 0
    top_k: int | None = None
    si_config: SiConfig = DEFAULT_SI_CONFIG


class RankSpec(Checked, _RankSpecFields):
    """What to rank and what to filter out before ranking, a named tuple."""

    __slots__ = ()

    def _check(self) -> None:
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


class ExclusionReport(Record):
    """Why entities in the store are absent from the emitted rows.

    rows + every bucket here partitions the store exactly; an entity failing
    several filters lands in the first bucket that rejected it, in the order
    of ``_fields``.
    """

    __slots__ = _fields = (
        "below_min_valenced", "below_min_references", "undefined_metric", "beyond_top_k",
    )

    def __init__(
        self,
        below_min_valenced: int = 0,
        below_min_references: int = 0,
        undefined_metric: int = 0,
        beyond_top_k: int = 0,
    ) -> None:
        self.below_min_valenced = below_min_valenced
        self.below_min_references = below_min_references
        self.undefined_metric = undefined_metric
        self.beyond_top_k = beyond_top_k

    @property
    def total(self) -> int:
        return sum(self._asdict().values())


def round_display(value: float | None) -> str:
    """Two-decimal display string of ``repr(value)``, ties rounding away
    from zero; None (undefined score) displays as the empty string.

    The rounding is decided on the shortest decimal form of the float, not
    on binary digits several places down: 2.675 shows as 2.68, though the
    float is 2.67499999999999982236431605997495353221893310546875.
    ``repr(value)`` is rounded as text where that is exact: with at most
    two decimals it is padded, with exactly three and a final 5 it steps
    one cent away from zero, and in exponent form (magnitude below 1e-4 or
    from 1e16 up) its digits are shifted.  Any other value goes through
    ``'%.2f'``, which rounds the float itself: the shortest form and the
    float then lie on one side of every half cent, so both round alike.
    """
    if value is None:
        return ""
    text = repr(value)
    sign = "-" if text[0] == "-" else ""
    if "e" in text:
        mantissa, _, exponent = text.lstrip("-").partition("e")
        if exponent[0] == "-":
            return sign + "0.00"
        digits = mantissa.replace(".", "")
        return sign + digits.ljust(int(exponent) + 1, "0") + ".00"
    whole, _, decimals = text.partition(".")
    if len(decimals) <= 2:
        return whole + "." + decimals.ljust(2, "0")
    if len(decimals) == 3 and decimals[2] == "5":
        cents = str(int(whole.lstrip("-") + decimals[:2]) + 1).rjust(3, "0")
        return sign + cents[:-2] + "." + cents[-2:]
    return "%.2f" % value


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
    # read once: a named tuple's field costs a descriptor call per read
    kind, min_valenced, min_references = spec.kind, spec.min_valenced, spec.min_references
    si_config, by_usi = spec.si_config, spec.metric == "usi"
    for key, tally in store.tallies.items():
        if kind is not None and key.kind != kind:
            raise ConfigError(f"spec expects kind {kind!r} but store holds {key.kind!r}")
        if tally.valenced < min_valenced:
            report.below_min_valenced += 1
            continue
        if tally.references < min_references:
            report.below_min_references += 1
            continue
        usi_value, si_value = _scores(tally, si_config)
        metric_value = usi_value if by_usi else si_value
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
) -> tuple[list[RankedRow], ExclusionReport]:
    """The si ranking of a per-field institution store, grouped by field
    label, and the ranking's exclusions.

    Any other store, plain or of another kind, is refused; an empty store
    gives no rows.  Cells without a defined score (no valenced statements, or
    zero usi or references) are dropped and counted as ``undefined_metric``,
    the report's only nonzero count: the breakdown is plot-ready data, and
    those cells would have no position on a score axis.  Sorted by field
    label, then score descending, then entity id.  A row's ``rank`` is its
    place in the whole store's si order; no table prints it.
    """
    if any(key.kind != "institution" or key.field is None for key in store.tallies):
        raise ConfigError("fields needs a per-field institution store")
    rows, report = rank_entities(store, RankSpec(si_config=si_config))
    # stable, so each field keeps the ranking's (si descending, id) order
    rows.sort(key=lambda row: row.entity.field)
    return rows, report


class CorrelationResult(Record):
    """Correlation of a store's scores against an external per-entity score."""

    __slots__ = _fields = ("r", "matched", "unmatched_rows", "unmatched_external")

    def __init__(self, r: float, matched: int, unmatched_rows: int, unmatched_external: int) -> None:
        self.r = r
        self.matched = matched
        self.unmatched_rows = unmatched_rows
        self.unmatched_external = unmatched_external


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
# ``write_rows`` and ``write_breakdown`` write a table to a text handle a
# chunk of rows at a time; ``export_rows`` returns the ranked table's text.
# csv and json carry exact values (repr round-trips them losslessly); the
# markdown table is the human view and shows display strings only.
#
# Each table names its columns once, and csv and json write the same cells:
# str, int, finite float or None.  csv writes a number as its repr and None
# as an empty cell, and quotes a string holding a comma, a quote, CR or LF.
# json writes ``json.dumps(rows, indent=2, ensure_ascii=False)`` and a newline.
# A row is one ``%`` of its format's template, built from the columns, over
# its cells already in the format's text (``str`` of an int or a float is
# its repr).  csv and json cells are made a chunk at a time, column by
# column, by C-level ``map`` and ``zip``.

# rows per write: enough to make the calls few, few enough that the text in
# memory stays a small fraction of a large table's
_CHUNK_ROWS = 128


class _Shown(dict):
    """The display string of each exact value in one format's text,
    rounded once."""

    def __init__(self, text: Callable[[str], str]):
        super().__init__()
        self.text = text

    def __missing__(self, value: float | None) -> str:
        shown = self.text(round_display(value))
        if value:  # 0.0 and -0.0 are one key, shown "0.00" and "-0.00"
            self[value] = shown
        return shown


class _Table(NamedTuple):
    columns: tuple[str, ...]
    # (rows, text of a str, ``or_null(value, value)``: the value or the
    # format's text of None, display text of an exact value) -> the rows' cells
    cells: Callable[..., Iterable[tuple]]
    md_columns: tuple[tuple[str, str], ...]  # (title, alignment)
    # (row, display string of an exact value) -> markdown cells
    md_cells: Callable[[Any, Callable[[Any], str]], tuple]


def _csv_text(text: str) -> str:
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _templates(table: _Table) -> dict[str, tuple[str, str, str]]:
    """Per format: the header, a row's template and the text between rows."""
    width = len(table.columns)
    json_members = (_quote(name).replace("%", "%%") + ": %s" for name in table.columns)
    md_titles, md_alignments = zip(*table.md_columns)
    return {
        "csv": (",".join(map(_csv_text, table.columns)) + "\n", ",".join(["%s"] * width) + "\n", ""),
        "json": ("[\n", "  {\n    " + ",\n    ".join(json_members) + "\n  }", ",\n"),
        "md": (
            "| " + " | ".join(md_titles) + " |\n| " + " | ".join(md_alignments) + " |\n",
            "| " + " | ".join(["%s"] * len(md_titles)) + " |\n",
            "",
        ),
    }


def _write_table(table: _Table, rows: Sequence, fmt: str, out: IO[str]) -> None:
    """Write ``rows`` to ``out`` a chunk at a time, so memory holds one
    chunk's text however long the table is."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "json" and not rows:
        out.write("[]\n")
        return
    header, template, between = _TEMPLATES[table][fmt]
    text, null = {"csv": (_csv_text, ""), "json": (_quote, "null"), "md": (str, "")}[fmt]
    out.write(header)
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        # a chunk's own display strings: a table's would grow with the table
        shown = _Shown(text).__getitem__
        if fmt == "md":
            cells = [table.md_cells(row, shown) for row in chunk]
        else:
            cells = table.cells(chunk, text, {None: null}.get, shown)
        out.write((between if start else "") + between.join(map(template.__mod__, cells)))
    if fmt == "json":
        out.write("\n]\n")


def _md_escape(text: str) -> str:
    """A pipe would end the cell and a line break the row; GitHub-flavored
    Markdown renders ``<br>`` as a break inside the cell."""
    text = text.replace("|", "\\|")
    return text.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")


def _rank_cells(rows: Sequence[RankedRow], text: Callable[[str], str], or_null: Callable,
                shown: Callable) -> Iterable[tuple]:
    ranks, entities, tallies, usis, sis = zip(*rows)
    kinds, ids, _ = zip(*entities)
    return zip(
        map(text, kinds),
        map(text, ids),
        *zip(*map(tally_counts, tallies)),
        map(or_null, usis, usis),
        map(or_null, sis, sis),
        map(shown, usis),
        map(shown, sis),
        ranks,
    )


def _breakdown_cells(rows: Sequence[RankedRow], text: Callable[[str], str], or_null: Callable,
                     shown: Callable) -> Iterable[tuple]:
    _, entities, tallies, usis, sis = zip(*rows)
    _, institutions, labels = zip(*entities)
    return zip(
        map(text, institutions),
        map(text, labels),
        *zip(*map(tally_counts, tallies)),
        map(or_null, usis, usis),
        map(or_null, sis, sis),
    )


_RANK_TABLE = _Table(
    columns=(
        "kind", "id", "supporting", "mentioning", "contrasting", "references",
        "usi_exact", "si_exact", "usi_display", "si_display", "rank",
    ),
    cells=_rank_cells,
    md_columns=(
        ("Entity", ":--"), ("Supporting", "--:"), ("Mentioning", "--:"),
        ("Contrasting", "--:"), ("USI", "--:"), ("SI", "--:"),
    ),
    md_cells=lambda row, shown: (
        _md_escape(row.entity.id),
        *(f"{count:,}" for count in tally_counts(row.tally)[:3]),
        shown(row.usi_exact),
        shown(row.si_exact) or "n/a",
    ),
)

_BREAKDOWN_TABLE = _Table(
    columns=(
        "institution", "field", "supporting", "mentioning", "contrasting",
        "references", "usi_exact", "si_exact",
    ),
    cells=_breakdown_cells,
    md_columns=(
        ("Institution", ":--"), ("Field", ":--"), ("Supporting", "--:"), ("Mentioning", "--:"),
        ("Contrasting", "--:"), ("References", "--:"), ("USI", "--:"), ("SI", "--:"),
    ),
    md_cells=lambda row, shown: (
        _md_escape(row.entity.id),
        _md_escape(row.entity.field),
        *(f"{count:,}" for count in tally_counts(row.tally)),
        shown(row.usi_exact),
        shown(row.si_exact),
    ),
)

_TEMPLATES = {table: _templates(table) for table in (_RANK_TABLE, _BREAKDOWN_TABLE)}


def export_rows(rows: list[RankedRow], fmt: str) -> str:
    buffer = io.StringIO()
    _write_table(_RANK_TABLE, rows, fmt, buffer)
    return buffer.getvalue()


def write_rows(rows: Sequence[RankedRow], fmt: str, out: IO[str]) -> None:
    """Write what ``export_rows`` returns to ``out``, a chunk of rows at a time."""
    _write_table(_RANK_TABLE, rows, fmt, out)


def write_breakdown(rows: Sequence[RankedRow], fmt: str, out: IO[str]) -> None:
    """Write the per-field breakdown table to ``out``, a chunk of rows at a time."""
    _write_table(_BREAKDOWN_TABLE, rows, fmt, out)
