"""Per-view maintenance ledger: the run record of one view.

One :class:`RoundEntry` per maintenance round is what
:meth:`~repro.ivm.maintainer.ViewMaintainer.step` and ``refresh`` return
and what the view's :class:`ViewLedger` keeps: the *decision* --
arrivals, action, predicted cost (against the measured one, the paper's
Figure 5) -- beside the *accounting* -- where the simulated cost went:
how much of it was join work (index probes / hash build+probe), how much
aggregate upkeep, and what backlog was left behind.

Ledgers are always on: every round appends one entry, so there is nothing
to toggle, and ``ledger.entries`` reads one entry per view per round.  A
round that did work appends a record of its own.  A round that did none
-- idle, or a flush the shared scan's fingerprint suppressed whole -- has
nothing of the view's own in it, so every such view-round of one
maintenance round that agrees on the decision (arrivals, state, action,
prediction, backlog) appends the **same** immutable entry
(:class:`~repro.ivm.sharedscan.SharedScanRound` keeps them for the round):
an idle view-round costs a list append, not a nine-field object.  Such an
entry is unwritable: the dataclass is frozen and its ``charges`` is the
read-only :data:`NO_CHARGES`; its ``sim_ms`` is 0.0, nothing having been
metered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.engine.costmodel import CostModel, OperationCounter, float_total

#: Counter fields whose weighted cost we attribute to join work.
JOIN_FIELDS = ("index_probes", "hash_builds", "hash_probes")
#: Counter fields whose weighted cost we attribute to aggregate upkeep.
AGG_FIELDS = ("agg_updates", "sort_items")
#: The charges of a round that did no work.  Read-only, because the entry
#: that holds it may sit on every ledger of a fleet (and, being a mapping
#: proxy, not copyable: serialise ``dict(entry.charges)``).
NO_CHARGES: Mapping[str, int] = MappingProxyType({})


def _weighted_ms(charges: Mapping[str, int], model: CostModel, fields) -> float:
    total = 0.0
    for f in fields:
        count = charges.get(f, 0)
        if count:
            total += count * getattr(model, OperationCounter._WEIGHT_BY_FIELD[f])
    return total


@dataclass(frozen=True)
class RoundEntry:
    """One maintenance round of one view, fully costed."""

    t: int
    arrivals: tuple[int, ...]
    pre_state: tuple[int, ...]
    action: tuple[int, ...]
    forced: bool
    predicted_ms: float
    sim_ms: float
    backlog: int
    #: Non-zero counter-field deltas charged during this round.
    charges: Mapping[str, int]

    @property
    def mods_applied(self) -> int:
        return sum(self.action)

    @property
    def flushes(self) -> int:
        return sum(1 for k in self.action if k)


@dataclass
class ViewLedger:
    """Cumulative, per-round maintenance accounting for one view."""

    view: str
    aliases: tuple[str, ...]
    entries: list[RoundEntry] = field(default_factory=list)

    def record(self, entry: RoundEntry) -> None:
        self.entries.append(entry)

    # -- cumulative views ------------------------------------------------

    @property
    def action_count(self) -> int:
        """Number of rounds with a non-zero action."""
        return sum(1 for e in self.entries if any(e.action))

    @property
    def flushes(self) -> int:
        return sum(e.flushes for e in self.entries)

    @property
    def total_sim_ms(self) -> float:
        """Sum of engine-measured action costs (live-system view)."""
        return float_total(e.sim_ms for e in self.entries)

    #: The name the benchmark harness reads it by.
    total_actual_cost_ms = total_sim_ms

    @property
    def backlog(self) -> int:
        """Backlog left after the most recent round (0 when no rounds)."""
        return self.entries[-1].backlog if self.entries else 0

    def charge_totals(self) -> dict[str, int]:
        """Counter-field deltas summed over all rounds."""
        totals: dict[str, int] = {}
        for e in self.entries:
            for f, count in e.charges.items():
                totals[f] = totals.get(f, 0) + count
        return totals

    def join_ms(self, model: CostModel) -> float:
        """Simulated cost of join work (probes + hash build/probe)."""
        return _weighted_ms(self.charge_totals(), model, JOIN_FIELDS)

    def agg_ms(self, model: CostModel) -> float:
        """Simulated cost of aggregate upkeep (updates + recomputes)."""
        return _weighted_ms(self.charge_totals(), model, AGG_FIELDS)
