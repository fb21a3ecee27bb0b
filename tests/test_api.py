"""The public names and the traced entry points resolve on the package.

The traced benchmark run wraps each entry of bench/tracing.py's LAYERS
and fails when one is missing; these tests make the same lookup, so a
removed or renamed entry point fails here too.  bench/tracing.py is read,
never changed.
"""

import importlib
import importlib.util
import os

import toricflow

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    assert len(set(toricflow.__all__)) == len(toricflow.__all__)
    missing = [name for name in toricflow.__all__ if not hasattr(toricflow, name)]
    assert missing == []


def test_every_traced_layer_resolves():
    # as Tracer.install looks them up: a module attribute, or an attribute
    # in the owner class's own vars
    layers = _tracing().LAYERS
    assert layers
    for span, module, owner, attr, _ in layers:
        home = importlib.import_module("toricflow." + module)
        if owner is None:
            assert hasattr(home, attr), span
        else:
            assert attr in vars(getattr(home, owner)), span
