"""Stance-aware citation tallies and deterministic entity rankings.

Pipeline: ingest classified citation statements and reference events,
resolve cited publications to journals, institutions, or fields, aggregate
per-entity tallies over a citing-year window, then rank by the unweighted
or impact-weighted support index and export tables.

Every name in the ``__all__`` of the six library modules (errors, ingest,
linking, metrics, aggregate, rank) is importable from here, and each is
declared only there.  ``citerank.cli`` is not imported, and names a module
keeps out of its ``__all__`` (``ingest.parse_score``,
``rank.require_plain_store``) stay in that module.
"""

from .errors import *
from .ingest import *
from .linking import *
from .metrics import *
from .aggregate import *
from .rank import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *ingest.__all__, *linking.__all__,
           *metrics.__all__, *aggregate.__all__, *rank.__all__, "__version__"]
