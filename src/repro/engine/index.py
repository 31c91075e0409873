"""Secondary indexes.

An index is a declaration: :meth:`Table.create_index
<repro.engine.table.Table.create_index>` records that a column is indexed,
and from then on every write charges ``index_maintains`` for it and the
planner may join into the table by index-nested-loop, charging one
``index_probe`` per outer row.  That charge is the paper's cheap ``R |x|
dS`` path; what serves the probe is the table's one key map,
:meth:`~repro.engine.table.Table.versions_by_key`, filtered by visibility
at the reading snapshot's LSN, the same map a hash join's build side reads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Index:
    """The index ``name`` on ``column`` of the table that declared it."""

    name: str
    column: str
