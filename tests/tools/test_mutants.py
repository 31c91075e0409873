"""The mutation census's list cannot rot (``tools/mutants.py``).

Every mutant's old text must occur exactly once in its file: a refactor
that moves or rewrites it fails here, not silently in the next census.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "mutants.py"

spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
sys.modules.setdefault("mutants", mutants)
spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) and 30 <= len(names) <= 60
    for m in mutants.MUTANTS:
        text = (REPO_ROOT / "src" / "repro" / m.path).read_text("utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.guarantee, m.name
