"""Row generation and database loading for TPC-R.

:class:`TpcrGenerator` yields rows per table using dbgen's population
rules (deterministic given a seed):

* ``partsupp``: each part gets exactly 4 suppliers via dbgen's
  stride formula, which spreads a part's suppliers across the supplier
  key space so the join degree is uniform;
* ``supplier.nationkey`` and ``customer.nationkey``: uniform over the 25
  nations;
* money columns: uniform in the spec's ranges (e.g. ``supplycost`` in
  [1.00, 1000.00]);
* ``orders``/``lineitem``: order dates uniform over the spec's seven-year
  window, 1-7 line items per order.

:func:`load_tpcr` creates and populates the tables in a
:class:`~repro.engine.database.Database`, optionally restricted to the
tables an experiment needs (the paper's view touches only region, nation,
supplier, and partsupp).
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from repro.engine.database import Database
from repro.tpcr import text
from repro.tpcr.schema import TPCR_SCHEMAS, table_cardinality

#: Order of table generation respecting foreign-key dependencies.
GENERATION_ORDER: tuple[str, ...] = (
    "region",
    "nation",
    "supplier",
    "part",
    "partsupp",
    "customer",
    "orders",
    "lineitem",
)


def partsupp_suppkey(partkey: int, i: int, supplier_count: int) -> int:
    """dbgen's supplier assignment for the ``i``-th (0..3) supplier of a part.

    ``ps_suppkey = (ps_partkey + (i * (S/4 + (ps_partkey - 1) / S))) % S + 1``
    where ``S`` is the number of suppliers.  Spreads each part's suppliers
    roughly evenly around the key space.
    """
    s = supplier_count
    return (partkey + i * (s // 4 + (partkey - 1) // s)) % s + 1


class TpcrGenerator:
    """Deterministic row generator for all TPC-R tables."""

    def __init__(self, scale: float = 0.01, seed: int = 19721212):
        if scale <= 0:
            raise ValueError(f"scale factor must be positive, got {scale}")
        self.scale = scale
        self.seed = seed

    def _rng(self, table: str) -> random.Random:
        """A per-table stream so tables can be generated independently."""
        return random.Random(f"{self.seed}/{table}")

    def rows(self, table: str) -> Iterator[tuple]:
        """Yield the rows of ``table`` in primary-key order."""
        generator = getattr(self, f"_gen_{table}", None)
        if generator is None:
            raise KeyError(f"unknown TPC-R table {table!r}")
        return generator()

    # ------------------------------------------------------------------
    # Per-table generators
    # ------------------------------------------------------------------

    def _gen_region(self) -> Iterator[tuple]:
        rng = self._rng("region")
        for key, name in enumerate(text.REGIONS):
            yield (key, name, text.comment(rng))

    def _gen_nation(self) -> Iterator[tuple]:
        rng = self._rng("nation")
        for key, (name, regionkey) in enumerate(text.NATIONS):
            yield (key, name, regionkey, text.comment(rng))

    def _gen_supplier(self) -> Iterator[tuple]:
        rng = self._rng("supplier")
        for suppkey in range(1, table_cardinality("supplier", self.scale) + 1):
            nationkey = rng.randrange(len(text.NATIONS))
            yield (
                suppkey,
                f"Supplier#{suppkey:09d}",
                text.v_string(rng, 10, 40),
                nationkey,
                text.phone(rng, nationkey),
                round(rng.uniform(-999.99, 9999.99), 2),
                text.comment(rng),
            )

    def _gen_part(self) -> Iterator[tuple]:
        rng = self._rng("part")
        for partkey in range(1, table_cardinality("part", self.scale) + 1):
            yield (
                partkey,
                text.part_name(rng),
                f"Manufacturer#{rng.randint(1, 5)}",
                text.part_brand(rng),
                text.part_type(rng),
                rng.randint(1, 50),
                text.part_container(rng),
                (90000 + (partkey // 10) % 20001 + 100 * (partkey % 1000))
                / 100.0,
                text.comment(rng),
            )

    def _gen_partsupp(self) -> Iterator[tuple]:
        rng = self._rng("partsupp")
        suppliers = table_cardinality("supplier", self.scale)
        for partkey in range(1, table_cardinality("part", self.scale) + 1):
            for i in range(4):
                yield (
                    partkey,
                    partsupp_suppkey(partkey, i, suppliers),
                    rng.randint(1, 9999),
                    round(rng.uniform(1.00, 1000.00), 2),
                    text.comment(rng),
                )

    def _gen_customer(self) -> Iterator[tuple]:
        rng = self._rng("customer")
        for custkey in range(1, table_cardinality("customer", self.scale) + 1):
            nationkey = rng.randrange(len(text.NATIONS))
            yield (
                custkey,
                f"Customer#{custkey:09d}",
                text.v_string(rng, 10, 40),
                nationkey,
                text.phone(rng, nationkey),
                round(rng.uniform(-999.99, 9999.99), 2),
                text.market_segment(rng),
                text.comment(rng),
            )

    def _gen_orders(self) -> Iterator[tuple]:
        rng = self._rng("orders")
        customers = table_cardinality("customer", self.scale)
        for orderkey in range(1, table_cardinality("orders", self.scale) + 1):
            yield (
                orderkey,
                rng.randint(1, customers),
                rng.choice(("O", "F", "P")),
                round(rng.uniform(1000.0, 500000.0), 2),
                _random_date(rng, 1992, 1998),
                text.order_priority(rng),
                text.clerk(rng, self.scale),
                0,
                text.comment(rng),
            )

    def _gen_lineitem(self) -> Iterator[tuple]:
        rng = self._rng("lineitem")
        parts = table_cardinality("part", self.scale)
        suppliers = table_cardinality("supplier", self.scale)
        for orderkey in range(1, table_cardinality("orders", self.scale) + 1):
            for linenumber in range(1, rng.randint(1, 7) + 1):
                partkey = rng.randint(1, parts)
                suppkey = partsupp_suppkey(
                    partkey, rng.randrange(4), suppliers
                )
                quantity = float(rng.randint(1, 50))
                extended = round(quantity * rng.uniform(900.0, 1100.0), 2)
                shipdate = _random_date(rng, 1992, 1998)
                yield (
                    orderkey,
                    partkey,
                    suppkey,
                    linenumber,
                    quantity,
                    extended,
                    round(rng.uniform(0.0, 0.10), 2),
                    round(rng.uniform(0.0, 0.08), 2),
                    rng.choice(("A", "N", "R")),
                    rng.choice(("O", "F")),
                    shipdate,
                    _random_date(rng, 1992, 1998),
                    _random_date(rng, 1992, 1998),
                    rng.choice(
                        ("DELIVER IN PERSON", "COLLECT COD", "NONE",
                         "TAKE BACK RETURN")
                    ),
                    rng.choice(
                        ("AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP",
                         "TRUCK")
                    ),
                    text.comment(rng, 2, 6),
                )


def _random_date(rng: random.Random, year_lo: int, year_hi: int) -> str:
    """A ``YYYY-MM-DD`` date uniform over whole years (28-day months keep
    it simple and valid)."""
    return (
        f"{rng.randint(year_lo, year_hi):04d}-"
        f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    )


def load_tpcr(
    db: Database,
    scale: float = 0.01,
    seed: int = 19721212,
    tables: Sequence[str] | None = None,
) -> dict[str, int]:
    """Create and populate TPC-R tables in ``db``.

    Returns per-table row counts.  ``tables`` defaults to the four tables
    of the paper's experiment view (region, nation, supplier, partsupp);
    pass explicit names (in any order) for more.
    """
    wanted = set(
        tables if tables is not None
        else ("region", "nation", "supplier", "partsupp")
    )
    unknown = wanted - set(TPCR_SCHEMAS)
    if unknown:
        raise KeyError(f"unknown TPC-R tables {sorted(unknown)}")
    generator = TpcrGenerator(scale=scale, seed=seed)
    counts: dict[str, int] = {}
    for table_name in GENERATION_ORDER:
        if table_name not in wanted:
            continue
        table = db.create_table(table_name, TPCR_SCHEMAS[table_name])
        counts[table_name] = len(table.insert_rows(generator.rows(table_name)))
    return counts
