"""Deterministic operation-count cost model.

The paper measures view-maintenance cost in wall-clock seconds on a
commercial DBMS.  Wall clocks are neither available (we simulate) nor
reproducible; instead every physical operator charges its work to an
:class:`OperationCounter`, and a :class:`CostModel` converts the tally to
simulated milliseconds with fixed weights.

The weights encode the usual relative magnitudes of database operations:
a page read dominates, an index probe costs a few comparisons, streaming a
tuple through an operator is cheap.  Their absolute values are arbitrary
(the paper's absolute numbers depend on its 2005-era hardware anyway); what
matters for reproducing the paper is the *shape* of the resulting batch
cost curves -- index-assisted maintenance scales linearly with small slope,
scan-based maintenance pays a large size-dependent setup -- and those
shapes come out of operator structure, not the particular weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

#: Rows per disk page assumed when converting scans into page reads.
#: Deliberately coarse; only the staircase granularity depends on it.
ROWS_PER_PAGE = 64


def float_total(values: Iterable[float]) -> float:
    """``values`` added left to right with plain additions.

    Never ``sum()``: it compensates float sums on CPython >= 3.12, and
    these totals are the simulated cost the experiments report, which
    must not depend on the interpreter.
    """
    total = 0
    for value in values:
        total = total + value
    return total


@dataclass(frozen=True)
class CostModel:
    """Weights (simulated milliseconds) for each operation class."""

    page_read: float = 1.0  # one page fetched from storage
    tuple_cpu: float = 0.005  # streaming one tuple through an operator
    compare: float = 0.002  # one predicate/key comparison
    index_probe: float = 0.02  # one hash/sorted index lookup
    hash_build: float = 0.01  # inserting one tuple into a join hash table
    hash_probe: float = 0.008  # probing a join hash table once
    row_write: float = 0.05  # writing one row version (insert/delete)
    index_maintain: float = 0.02  # updating one secondary index entry
    agg_update: float = 0.01  # folding one tuple into an aggregate state
    sort_item: float = 0.02  # one item's share of a sort/recompute pass
    startup: float = 0.5  # fixed per-statement setup (parse/optimize)


@dataclass
class OperationCounter:
    """Mutable tally of operations, convertible to simulated time.

    One counter is typically shared by a whole :class:`~repro.engine.database.Database`;
    :meth:`window` brackets a region of work (e.g. one maintenance batch)
    and reports the simulated milliseconds it consumed.
    """

    model: CostModel = field(default_factory=CostModel)
    page_reads: int = 0
    tuple_cpu: int = 0
    compares: int = 0
    index_probes: int = 0
    hash_builds: int = 0
    hash_probes: int = 0
    row_writes: int = 0
    index_maintains: int = 0
    agg_updates: int = 0
    sort_items: int = 0
    startups: int = 0

    _FIELDS = (
        "page_reads",
        "tuple_cpu",
        "compares",
        "index_probes",
        "hash_builds",
        "hash_probes",
        "row_writes",
        "index_maintains",
        "agg_updates",
        "sort_items",
        "startups",
    )
    _WEIGHT_BY_FIELD = {
        "page_reads": "page_read",
        "tuple_cpu": "tuple_cpu",
        "compares": "compare",
        "index_probes": "index_probe",
        "hash_builds": "hash_build",
        "hash_probes": "hash_probe",
        "row_writes": "row_write",
        "index_maintains": "index_maintain",
        "agg_updates": "agg_update",
        "sort_items": "sort_item",
        "startups": "startup",
    }

    #: ``(model, ((field, weight), ...))`` -- the weights of ``model``
    #: looked up once, in ``_FIELDS`` order; rebound if ``model`` changes.
    _bound: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- charging -----------------------------------------------------------

    def charge_pages(self, rows: int) -> None:
        """Charge page reads for scanning ``rows`` compactly stored rows."""
        if rows > 0:
            self.page_reads += -(-rows // ROWS_PER_PAGE)

    def charge(self, field_name: str, count: int = 1) -> None:
        """Add ``count`` operations of class ``field_name``."""
        if field_name not in self._WEIGHT_BY_FIELD:
            raise ValueError(f"unknown operation class {field_name!r}")
        self.__dict__[field_name] += count

    @classmethod
    def checked(
        cls, charges: Iterable[tuple[str, int]]
    ) -> tuple[tuple[str, int], ...]:
        """``(field, count)`` pairs as a tuple :meth:`replay` may add,
        every field checked here, once."""
        charges = tuple(charges)
        for field_name, _ in charges:
            if field_name not in cls._WEIGHT_BY_FIELD:
                raise ValueError(f"unknown operation class {field_name!r}")
        return charges

    def replay(self, charges: tuple[tuple[str, int], ...]) -> None:
        """Add every ``(field, count)`` of a :meth:`checked` tuple: the
        tallies :meth:`charge` would reach, without its per-field check."""
        tallies = self.__dict__
        for field_name, count in charges:
            tallies[field_name] += count

    # -- reading ------------------------------------------------------------

    def _weights(self) -> tuple[tuple[str, float], ...]:
        bound = self._bound
        if bound is None or bound[0] is not self.model:
            model = self.model
            bound = self._bound = (
                model,
                tuple(
                    (f, getattr(model, self._WEIGHT_BY_FIELD[f]))
                    for f in self._FIELDS
                ),
            )
        return bound[1]

    def elapsed_ms(self) -> float:
        """Weighted total simulated milliseconds.

        Accumulated left to right in ``_FIELDS`` order: the float result
        is the experiment observable, so the order is part of the contract.
        """
        tallies = self.__dict__
        total = 0.0
        for field_name, weight in self._weights():
            total += weight * tallies[field_name]
        return total

    def snapshot(self) -> dict[str, int]:
        """Current raw tallies (for diagnostics and tests)."""
        tallies = self.__dict__
        return {f: tallies[f] for f in self._FIELDS}

    def since(self, before: dict[str, int]) -> dict[str, int]:
        """The non-zero charges after :meth:`snapshot` ``before``, in its order."""
        tallies = self.__dict__
        return {
            f: tallies[f] - count
            for f, count in before.items()
            if tallies[f] != count
        }

    def reset(self) -> None:
        """Zero every tally."""
        for field_name in self._FIELDS:
            setattr(self, field_name, 0)

    def window(self) -> "CostWindow":
        """Context manager measuring the simulated time of a code region."""
        return CostWindow(self)

    def __repr__(self) -> str:
        return f"OperationCounter({self.elapsed_ms():.3f} ms)"


_read = itemgetter(*OperationCounter._FIELDS)


class CostWindow:
    """Measures simulated milliseconds consumed inside a ``with`` block,
    and after it, the charges made there (:attr:`charges`)."""

    __slots__ = ("counter", "elapsed_ms", "_before", "_after", "_start")

    def __init__(self, counter: OperationCounter):
        self.counter = counter
        self.elapsed_ms = 0.0
        self._before = self._after = ()
        self._start = 0.0

    def __enter__(self) -> "CostWindow":
        counter = self.counter
        self._before = _read(counter.__dict__)
        self._start = counter.elapsed_ms()
        return self

    def __exit__(self, *exc_info) -> None:
        counter = self.counter
        self._after = _read(counter.__dict__)
        self.elapsed_ms = counter.elapsed_ms() - self._start

    @property
    def charges(self) -> dict[str, int]:
        """The non-zero charges made inside the closed window, in
        ``_FIELDS`` order: what :meth:`OperationCounter.since` a
        snapshot taken on entry reads on exit."""
        return {
            f: after - before
            for f, after, before in zip(
                OperationCounter._FIELDS, self._after, self._before
            )
            if after != before
        }
