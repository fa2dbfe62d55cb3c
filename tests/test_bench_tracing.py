"""The benchmark's tracing module against the package it instruments.

``bench/tracing.py`` binds package functions by name when it is imported
and swaps them for wrappers in ``install``.  Importing it here makes a
package change that removes or renames one of those names fail the test
suite, and each mode must put every swapped attribute back on
``uninstall``.
"""

import builtins
import importlib
from pathlib import Path

import numpy as np
import pytest

import xpgraphs as xg
from xpgraphs import spectra

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def bindings(tracing):
    """Every attribute install may swap, as (owner, name) -> value."""
    owners = list(tracing._MODULES) + [np.linalg, builtins, xg.SecularSystem]
    return {(id(owner), name): value
            for owner in owners for name, value in list(vars(owner).items())}


@pytest.mark.parametrize("spans", [False, True])
def test_install_and_uninstall_restore_every_binding(tracing, spans):
    before = bindings(tracing)
    find_spectrum = spectra.find_spectrum
    inst = tracing.Instrument(spans=spans)
    inst.install()
    try:
        swapped = list(inst._saved)
        assert swapped
        assert spectra.find_spectrum is not find_spectrum
        for owner, name, value in swapped:
            assert getattr(owner, name) is not value, name
    finally:
        inst.uninstall()
    for owner, name, value in swapped:
        assert getattr(owner, name) is value, name
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
