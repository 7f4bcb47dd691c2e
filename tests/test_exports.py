"""The package namespace re-exports every submodule's public names."""

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
