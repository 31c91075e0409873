"""Paper-table generators: one `bench_*.py` per table/figure plus extensions.

`python -m pytest benchmarks --ignore=benchmarks/layered` regenerates
every `results/<name>.txt`, byte-exact; nothing here measures time (the
layered harness under `benchmarks/layered/` is the one benchmark system).
"""

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def write_table(name: str, text: str) -> None:
    """Write one table to ``results/<name>.txt`` and print it (`pytest -s`)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)
