"""The names perfbench traces must exist in marlab.

perfbench wraps functions by module and attribute path.  A refactor that
renames one of them fails the traced benchmark run; this test fails first,
in well under a second, without running the benchmark.
"""

import sys
from pathlib import Path

import pytest

import marlab.checks  # noqa: F401  (resolve looks modules up in sys.modules)
import marlab.runner  # noqa: F401
from marlab.nn import tensor as T

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layermap  # noqa: E402
from tracer import resolve  # noqa: E402


@pytest.mark.parametrize("span", layermap.SPANS + layermap.CHECK_SPANS,
                         ids=lambda span: span.name)
def test_every_traced_span_resolves(span):
    fn = resolve("marlab", span.module, span.qualname)
    assert callable(fn), f"marlab.{span.module}.{span.qualname} not found"


def test_every_counted_op_is_in_nn_tensor():
    missing = [op for op in layermap.OPS if not callable(getattr(T, op, None))]
    assert missing == []
