"""The lazy package namespace: what each import loads, and the exports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import free_stein
from free_stein import stein

SRC = str(Path(free_stein.__file__).resolve().parent.parent)
# the modules bench/probe.py resolves in sys.modules after importing the CLI
PROBED = {"ncalg", "trace", "stein", "fdalg", "quadrature", "closedform",
          "cli", "serialize", "parser"}


def _loaded(code: str) -> set:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env, timeout=120)
    return set(json.loads(done.stdout))


def _submodules(loaded: set) -> set:
    return {m.split(".", 1)[1] for m in loaded if m.startswith("free_stein.")}


def test_import_loads_no_submodule():
    loaded = _loaded("import free_stein")
    assert "free_stein" in loaded
    assert _submodules(loaded) == set()


def test_closed_forms_load_no_stein_layer():
    loaded = _submodules(_loaded("from free_stein import closedform, trace"))
    assert {"closedform", "trace", "quadrature"} <= loaded
    assert not loaded & {"stein", "fdalg", "serialize", "parser", "cli"}


def test_an_exported_name_loads_its_module():
    loaded = _submodules(_loaded("from free_stein import ModelError"))
    assert loaded == {"errors"}


def test_cli_loads_every_layer_the_probe_resolves():
    loaded = _loaded("import free_stein.cli")
    assert PROBED <= _submodules(loaded)
    assert "numpy.polynomial.legendre" in loaded


def test_every_export_is_its_module_attribute():
    assert len(free_stein.__all__) == len(set(free_stein.__all__)) == 55
    for name in free_stein.__all__:
        obj = getattr(free_stein, name)
        assert obj.__module__.startswith("free_stein.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(free_stein.__all__) <= set(dir(free_stein))
    assert "__version__" in dir(free_stein)


# the adjoint-domain solvers and one-line formulas that left the package;
# the solvers are test oracles in tests/conftest.py
REMOVED = {"eigenvalue_sigma": "closedform", "jacobian": "ncalg",
           "transform_kernel": "ncalg", "adjoint_action": "stein",
           "join_free_factors": "stein", "matrix_to_poly": "stein",
           "model_to_json": "trace", "parse_poly": "parser",
           "solve_adjoint_fd": "stein"}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    assert name not in free_stein.__all__
    assert not hasattr(free_stein, name)
    module = importlib.import_module(f"free_stein.{REMOVED[name]}")
    assert not hasattr(module, name)


def test_submodules_are_attributes():
    assert free_stein.stein is stein
    assert free_stein.cli is sys.modules["free_stein.cli"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        free_stein.nope
    assert not hasattr(free_stein, "nope")
    # a module's private name is not exported
    assert not hasattr(free_stein, "_kkt_multiplier")


def test_export_follows_a_patch_of_its_module(monkeypatch):
    def patched(*args, **kwargs):
        raise AssertionError("not called")

    original = stein.discrepancy
    with monkeypatch.context() as m:
        m.setattr(stein, "discrepancy", patched)
        assert free_stein.discrepancy is patched
    assert free_stein.discrepancy is original
    assert "discrepancy" not in vars(free_stein)
