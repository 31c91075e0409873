"""Tests for the TPC-R dbgen clone."""

import pytest

from repro.engine.database import Database
from repro.tpcr.gen import GENERATION_ORDER, TpcrGenerator, load_tpcr, partsupp_suppkey
from repro.tpcr.schema import TPCR_SCHEMAS, table_cardinality
from repro.tpcr.text import NATIONS, REGIONS


class TestCardinalities:
    def test_fixed_tables_ignore_scale(self):
        assert table_cardinality("region", 0.001) == 5
        assert table_cardinality("nation", 10.0) == 25

    def test_scaling_preserves_ratios(self):
        for scale in (0.01, 0.1, 1.0):
            ps = table_cardinality("partsupp", scale)
            sup = table_cardinality("supplier", scale)
            assert ps == 80 * sup

    def test_sf1_matches_spec(self):
        assert table_cardinality("supplier", 1.0) == 10_000
        assert table_cardinality("partsupp", 1.0) == 800_000
        assert table_cardinality("part", 1.0) == 200_000
        assert table_cardinality("customer", 1.0) == 150_000
        assert table_cardinality("orders", 1.0) == 1_500_000

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            table_cardinality("widgets", 1.0)
        with pytest.raises(KeyError):
            table_cardinality("lineitem", 1.0)  # stochastic

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            table_cardinality("supplier", 0.0)


class TestRowGeneration:
    def test_region_rows(self):
        rows = list(TpcrGenerator(scale=0.01).rows("region"))
        assert len(rows) == 5
        assert [r[1] for r in rows] == list(REGIONS)

    def test_nation_rows_reference_regions(self):
        rows = list(TpcrGenerator(scale=0.01).rows("nation"))
        assert len(rows) == 25
        for key, name, regionkey, __ in rows:
            assert 0 <= regionkey < 5
            assert NATIONS[key][0] == name

    def test_supplier_rows(self):
        gen = TpcrGenerator(scale=0.01)
        rows = list(gen.rows("supplier"))
        assert len(rows) == 100
        for suppkey, name, __, nationkey, phone, acctbal, __ in rows:
            assert name == f"Supplier#{suppkey:09d}"
            assert 0 <= nationkey < 25
            # dbgen phone rule: country code = nationkey + 10.
            assert phone.startswith(f"{nationkey + 10}-")
            assert -1000.0 < acctbal < 10000.0

    def test_partsupp_degree_is_four(self):
        gen = TpcrGenerator(scale=0.01)
        rows = list(gen.rows("partsupp"))
        parts = table_cardinality("part", 0.01)
        assert len(rows) == 4 * parts
        suppliers = table_cardinality("supplier", 0.01)
        for partkey, suppkey, availqty, supplycost, __ in rows:
            assert 1 <= suppkey <= suppliers
            assert 1.00 <= supplycost <= 1000.00
            assert 1 <= availqty <= 9999

    def test_partsupp_suppkey_formula_spreads(self):
        suppliers = 100
        keys = {partsupp_suppkey(1, i, suppliers) for i in range(4)}
        assert len(keys) == 4  # four distinct suppliers per part

    def test_determinism(self):
        a = list(TpcrGenerator(scale=0.005, seed=7).rows("supplier"))
        b = list(TpcrGenerator(scale=0.005, seed=7).rows("supplier"))
        assert a == b

    def test_seed_changes_content(self):
        a = list(TpcrGenerator(scale=0.005, seed=7).rows("supplier"))
        b = list(TpcrGenerator(scale=0.005, seed=8).rows("supplier"))
        assert a != b

    def test_rows_match_schemas(self):
        gen = TpcrGenerator(scale=0.002)
        for table in GENERATION_ORDER:
            schema = TPCR_SCHEMAS[table]
            for i, row in enumerate(gen.rows(table)):
                schema.validate_rows([row])
                if i > 20:
                    break

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            TpcrGenerator().rows("widgets")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            TpcrGenerator(scale=-1)

    def test_orders_reference_customers(self):
        gen = TpcrGenerator(scale=0.002)
        customers = table_cardinality("customer", 0.002)
        for i, row in enumerate(gen.rows("orders")):
            assert 1 <= row[1] <= customers
            if i > 50:
                break

    def test_lineitems_reference_valid_partsupp_pairs(self):
        gen = TpcrGenerator(scale=0.002)
        suppliers = table_cardinality("supplier", 0.002)
        pairs = set()
        for partkey, suppkey, *_rest in gen.rows("partsupp"):
            pairs.add((partkey, suppkey))
        for i, row in enumerate(gen.rows("lineitem")):
            assert (row[1], row[2]) in pairs
            if i > 50:
                break


class TestLoadTpcr:
    def test_default_tables(self):
        db = Database()
        counts = load_tpcr(db, scale=0.002)
        assert set(counts) == {"region", "nation", "supplier", "partsupp"}
        assert counts["supplier"] == 20
        assert counts["partsupp"] == 1600
        assert db.table("supplier").live_count == 20

    def test_explicit_table_selection(self):
        db = Database()
        counts = load_tpcr(db, scale=0.002, tables=("region", "nation"))
        assert set(counts) == {"region", "nation"}

    def test_unknown_table_rejected(self):
        db = Database()
        with pytest.raises(KeyError):
            load_tpcr(db, tables=("widgets",))

    def test_foreign_keys_join_cleanly(self):
        db = Database()
        load_tpcr(db, scale=0.002)
        suppliers = set(db.table("supplier").snapshot().column("suppkey"))
        for partkey, suppkey, *__ in db.table("partsupp").live_rows():
            assert suppkey in suppliers
        nations = set(db.table("nation").snapshot().column("nationkey"))
        for row in db.table("supplier").live_rows():
            assert row[3] in nations
