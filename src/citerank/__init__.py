"""Stance-aware citation tallies and deterministic entity rankings.

Pipeline: ingest classified citation statements and reference events,
resolve cited publications to journals, institutions, or fields, aggregate
per-entity tallies over a citing-year window, then rank by the unweighted
or impact-weighted support index and export tables.
"""

from .aggregate import (
    Diagnostics,
    Store,
    Window,
    build_store,
    count_statement_excess,
    dump_store,
    load_store,
)
from .errors import CiterankError, ConfigError, DataError, ParseError
from .ingest import (
    STANCE_CLASSES,
    AffiliationRecord,
    PublicationRecord,
    ReferenceEvent,
    SkipReport,
    StatementRecord,
    parse_affiliation,
    parse_publication,
    parse_reference,
    parse_statement,
    stream,
)
from .linking import ENTITY_KINDS, EntityKey, LinkTables, build_link_tables
from .metrics import (
    DEFAULT_SI_CONFIG,
    EntityTally,
    SiConfig,
    hs_index,
    implied_references,
    pearson,
    si,
    usi,
)
from .rank import (
    CorrelationResult,
    ExclusionReport,
    FieldBreakdownRow,
    RankedRow,
    RankSpec,
    correlate,
    export_rows,
    field_breakdown,
    rank_entities,
    round_display,
    write_breakdown,
    write_rows,
)

__version__ = "0.1.0"

__all__ = [
    "AffiliationRecord",
    "CiterankError",
    "ConfigError",
    "CorrelationResult",
    "DEFAULT_SI_CONFIG",
    "DataError",
    "Diagnostics",
    "ENTITY_KINDS",
    "EntityKey",
    "EntityTally",
    "ExclusionReport",
    "FieldBreakdownRow",
    "LinkTables",
    "ParseError",
    "PublicationRecord",
    "RankSpec",
    "RankedRow",
    "ReferenceEvent",
    "STANCE_CLASSES",
    "SiConfig",
    "SkipReport",
    "StatementRecord",
    "Store",
    "Window",
    "build_link_tables",
    "build_store",
    "correlate",
    "count_statement_excess",
    "dump_store",
    "export_rows",
    "field_breakdown",
    "hs_index",
    "implied_references",
    "load_store",
    "parse_affiliation",
    "parse_publication",
    "parse_reference",
    "parse_statement",
    "pearson",
    "rank_entities",
    "round_display",
    "si",
    "stream",
    "usi",
    "write_breakdown",
    "write_rows",
    "__version__",
]
