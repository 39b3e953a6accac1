"""The benchmark traces library names by dotted path, so a rename of one of
them fails here, in the change that makes it, rather than in a later traced
benchmark run. perfbench.tracer imports only the standard library, and this
test only reads its table."""

import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench import tracer  # noqa: E402


@pytest.mark.parametrize("dotted", [row[0] for row in tracer.TRACE_TABLE])
def test_every_traced_name_resolves_to_a_callable(dotted):
    found = tracer.resolve(dotted)
    assert found is not None, f"{dotted} no longer resolves"
    assert callable(found[2])
