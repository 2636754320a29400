"""Every function the benchmark tracer rebinds exists under its name, so a
rename or a deletion in the library fails here and not only in a traced
benchmark run.  The tracer module is read, not changed."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, fn) for layer, fns in module.TRACED.items() for fn in fns]


TRACED = _traced()


def test_tracer_names_every_layer():
    assert {layer for layer, _ in TRACED} >= {"seq_core", "lyndon_intervals", "windows", "cli"}
    assert ("seq_core", "lex_cmp") in TRACED


@pytest.mark.parametrize("layer, fn", TRACED, ids=lambda v: v)
def test_traced_name_resolves(layer, fn):
    assert callable(getattr(importlib.import_module("betahole." + layer), fn, None))
