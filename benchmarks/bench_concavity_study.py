"""Future-work bench: does concavity tighten the LGM factor-2 bound?"""

import pytest

from benchmarks import write_table
from repro.experiments.concavity_study import run_concavity_study


def bench_concavity_study():
    result = run_concavity_study()
    write_table("concavity_study", result.format())
    # The measured ordering: linear == 1 exactly; concave small; the
    # non-concave families carry the big gaps.
    assert result.worst("linear") == pytest.approx(1.0)
    assert result.worst("concave") < 1.1
    assert result.worst("step") >= 1.5
    assert result.worst("concave") < result.worst("block-io")
