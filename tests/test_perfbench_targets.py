"""Every function the benchmark's layer tracer wraps still exists.

``perfbench/run.py --trace 1`` reports a renamed or removed target as
absent instead of failing, and the test run does not collect
``perfbench/``, so this test resolves each ``module:qualname`` spec of
``layers.TARGETS`` the way the tracer does.  It only reads ``perfbench/``.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import layers
        import tracer

        yield layers, tracer


def test_every_trace_target_resolves(perfbench_modules):
    layers, tracer = perfbench_modules
    assert layers.TARGETS
    for name, spec in layers.TARGETS.items():
        _, _, target = tracer._resolve(spec)  # raises LookupError when missing
        assert callable(target), (name, spec)
