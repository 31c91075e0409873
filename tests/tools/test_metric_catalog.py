"""Tests for the metric-catalog lint (``tools/check_metric_catalog.py``).

The real repository must pass the lint (that is the tier-1 guarantee CI
relies on); the unit tests drive the collector and matcher over small
synthetic trees to pin the failure modes -- metric names built at run
time, undocumented emissions and stale catalog rows.  Every metric name
is a static string, so the emitted and documented sets compare exactly:
an f-string that starts a metric family and a ``<placeholder>`` row are
both failures.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "check_metric_catalog.py"

spec = importlib.util.spec_from_file_location("check_metric_catalog", TOOL)
catalog = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_metric_catalog", catalog)
spec.loader.exec_module(catalog)


def write_src(tmp_path: Path, code: str) -> Path:
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    (src / "mod.py").write_text(code)
    return src


def write_docs(tmp_path: Path, rows: list[str]) -> Path:
    docs = tmp_path / "observability.md"
    lines = ["# Catalog", "", "| metric | meaning |", "|---|---|"]
    lines += [f"| `{name}` | something |" for name in rows]
    docs.write_text("\n".join(lines) + "\n")
    return docs


class TestRealRepository:
    def test_catalog_is_clean(self):
        """The committed source and docs agree -- the CI gate."""
        assert catalog.check() == []

    def test_main_exit_code_zero(self, capsys):
        assert catalog.main([]) == 0
        assert "metric catalog OK" in capsys.readouterr().out


class TestEmittedCollection:
    def test_plain_and_multiline_strings(self, tmp_path):
        src = write_src(
            tmp_path,
            'A = "engine.queries"\n'
            "def f(rec):\n"
            "    rec.counter(\n"
            '        "ivm.flushes"\n'
            "    )\n"
            'NOT_A_METRIC = "hello world"\n'
            'OTHER = "some.unknown.family"\n',
        )
        names = catalog.emitted_names(src)
        assert set(names) == {"engine.queries", "ivm.flushes"}
        assert names["engine.queries"] == ["src/mod.py"] or names[
            "engine.queries"
        ][0].endswith("mod.py")

    def test_dict_key_tallies_are_seen(self, tmp_path):
        src = write_src(
            tmp_path,
            'TALLY = {"engine.scan.pages": 1, "engine.scan.rows": 2}\n',
        )
        assert set(catalog.emitted_names(src)) == {
            "engine.scan.pages",
            "engine.scan.rows",
        }


class TestDocumentedCollection:
    def test_first_cell_only_with_placeholders(self, tmp_path):
        docs = tmp_path / "d.md"
        docs.write_text(
            "| `slo.breaches` | counts `slo.margin` crossings |\n"
            "| `ivm.view.<view>.rounds` | per view |\n"
            "| plain text | no backticks |\n"
        )
        names = catalog.documented_names(docs)
        # A placeholder row is kept verbatim: nothing can emit it.
        assert set(names) == {"slo.breaches", "ivm.view.<view>.rounds"}

    def test_slash_separated_cells(self, tmp_path):
        docs = tmp_path / "d.md"
        docs.write_text("| `engine.io.rows_read` / `engine.io.rows_written` | io |\n")
        assert set(catalog.documented_names(docs)) == {
            "engine.io.rows_read",
            "engine.io.rows_written",
        }


class TestCheck:
    def test_clean(self, tmp_path):
        src = write_src(tmp_path, 'N = "engine.queries"\n')
        docs = write_docs(tmp_path, ["engine.queries"])
        assert catalog.check(src, docs) == []

    def test_undocumented_emission_fails(self, tmp_path):
        src = write_src(
            tmp_path,
            'N = "engine.queries"\nM = "slo.breaches"\n'
            'def f(rec, vid):\n    rec.counter(f"ivm.view.{vid}.rounds")\n',
        )
        docs = write_docs(tmp_path, ["engine.queries"])
        problems = catalog.check(src, docs)
        assert len(problems) == 2
        assert "metric name f'ivm.view.{vid}.rounds' built at run time" in (
            problems[0]
        )
        assert "undocumented metric 'slo.breaches'" in problems[1]

    def test_stale_doc_row_fails(self, tmp_path):
        src = write_src(tmp_path, 'N = "engine.queries"\n')
        docs = write_docs(
            tmp_path,
            ["engine.queries", "engine.gone", "ivm.view.<view>.rounds"],
        )
        problems = catalog.check(src, docs)
        assert len(problems) == 2
        assert "stale catalog entry 'engine.gone'" in problems[0]
        assert "stale catalog entry 'ivm.view.<view>.rounds'" in problems[1]

    def test_main_reports_problems_and_exits_nonzero(self, tmp_path, capsys):
        src = write_src(tmp_path, 'N = "engine.rogue"\n')
        docs = write_docs(tmp_path, [])
        code = catalog.main(["--src", str(src), "--docs", str(docs)])
        err = capsys.readouterr().err
        assert code == 1
        assert "undocumented metric" in err
        assert "1 metric-catalog problem(s)" in err
