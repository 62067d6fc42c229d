"""Every name in a ``logicdec`` module's ``__all__`` exists, so that a
deleted function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import logicdec

MODULES = sorted(info.name for info in pkgutil.iter_modules(logicdec.__path__, "logicdec."))


def test_the_modules_with_exports_are_found():
    exporting = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert {"logicdec.decision", "logicdec.decoder", "logicdec.lm"} <= set(exporting)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
