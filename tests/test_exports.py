"""The package namespace re-exports every submodule's public names."""

import pytest

import pgsearch
from pgsearch import analysis, errors, model, optimizer, statevector

SUBMODULES = (errors, model, statevector, optimizer, analysis)


def test_package_all_is_the_union_of_submodule_exports():
    expected = [name for module in SUBMODULES for name in module.__all__]
    assert sorted(pgsearch.__all__) == sorted(expected + ["__version__"])
    assert len(set(pgsearch.__all__)) == len(pgsearch.__all__)
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(pgsearch, name) is getattr(module, name)
    assert isinstance(pgsearch.__version__, str)
    assert pgsearch.schedule_state is model.schedule_state


def test_statevector_names_resolve_lazily():
    assert pgsearch.sv_run_schedule is pgsearch.statevector.sv_run_schedule
    namespace = {}
    exec("from pgsearch import *", namespace)
    for name in statevector.__all__:
        assert namespace[name] is getattr(statevector, name)
    with pytest.raises(AttributeError):
        pgsearch.no_such_name


def test_statevector_names_follow_rebinding(monkeypatch):
    # nothing is cached in the package, so a wrapper installed on the
    # submodule is what the package name returns
    def wrapper(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(statevector, "load_state", wrapper)
    assert pgsearch.load_state is wrapper

