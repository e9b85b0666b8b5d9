"""The traced benchmark run wraps tra functions by name, at each module that
imports them. This suite does not run bench/, so it checks here that every
name the recorder wraps still exists where the recorder looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path", [(t[0], t[1]) for t in _targets()])
def test_every_traced_name_resolves_where_the_recorder_wraps_it(module_name, path):
    # the same lookup as Spans.install: attributes down to the owner, then its __dict__
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])
