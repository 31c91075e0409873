"""The paper's update streams (Section 5).

"Each modification randomly updates either a PartSupp row's supplycost, or
a Supplier row's nationkey."  :class:`PartSuppCostUpdater` and
:class:`SupplierNationUpdater` implement exactly those, deterministically
from a seed.

Updaters track the live row ids themselves (an update supersedes a row
version, so the fresh version's id must replace the old one); this keeps
picking a random victim O(1) instead of scanning the table.  The list is
re-derived from the table (:meth:`Table.live_rids
<repro.engine.table.Table.live_rids>`) whenever anyone else has written to
it since this updater's last batch.
"""

from __future__ import annotations

import random
from typing import Any

from repro.engine.table import Table
from repro.tpcr.text import NATIONS


class TableUpdater:
    """Base class: applies random single-column updates to one table."""

    #: The column a subclass's stream rewrites.
    column: str

    def __init__(self, table: Table, seed: int = 7):
        self.table = table
        self.rng = random.Random(f"{seed}/{table.name}")
        self._live_rids = table.live_rids()
        #: The table's ``current_lsn`` while ``_live_rids`` is its live
        #: row ids -- every write moves it; None while the list runs ahead
        #: of the table.
        self._tracked: int | None = table.current_lsn
        if not self._live_rids:
            raise ValueError(f"table {table.name!r} is empty; nothing to update")

    def _draw(self) -> Any:
        """The next update's new value for :attr:`column`."""
        raise NotImplementedError

    def apply(self, k: int) -> range:
        """Apply ``k`` random updates as one batch; returns their LSNs.

        Draws are slot, then value, update by update.  A slot drawn twice
        in a batch names the version its first draw created, exactly as
        ``k`` batches of one would have it.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        table = self.table
        lsn = table.current_lsn
        if self._tracked != lsn:
            # Someone else wrote to the table: held row ids may be dead,
            # and new rows are missing.
            self._live_rids = table.live_rids()
        self._tracked = None
        live = self._live_rids
        randrange, draw = self.rng.randrange, self._draw
        fresh = table.version_count()  # the slot the next new version takes
        rids, values = [], []
        for __ in range(k):
            slot = randrange(len(live))
            values.append(draw())
            rids.append(live[slot])
            live[slot] = fresh
            fresh += 1
        lsns = table.update_rids(rids, {self.column: values})
        self._tracked = lsn + k
        return lsns

    def __call__(self, k: int) -> None:
        """Mutator interface for :func:`repro.ivm.calibration.measure_cost_function`."""
        self.apply(k)


class PartSuppCostUpdater(TableUpdater):
    """Random ``supplycost`` updates on PartSupp, uniform in [1.00, 1000.00]."""

    column = "supplycost"

    def _draw(self) -> float:
        return round(self.rng.uniform(1.00, 1000.00), 2)


class SupplierNationUpdater(TableUpdater):
    """Random ``nationkey`` updates on Supplier, uniform over the 25 nations."""

    column = "nationkey"

    def _draw(self) -> int:
        return self.rng.randrange(len(NATIONS))


class NationRegionUpdater(TableUpdater):
    """Random ``regionkey`` updates on Nation, uniform over the 5 regions.

    Not one of the paper's streams -- the third modification dimension for
    the n = 3 scheduling extension (`repro.experiments.three_way`).  A
    nation moving region drags every one of its suppliers' PartSupp rows
    in or out of the view: the highest-fan-out, most expensive stream.
    """

    column = "regionkey"

    def _draw(self) -> int:
        return self.rng.randrange(5)
