"""The package namespace: each API module's ``__all__`` is the one list of its
public names, and the package re-exports exactly those."""

import types

import gmtree
from gmtree import embedding, errors, gauss, inner, lattice, modelio, outer, trees, worstcase

MODULES = (errors, gauss, trees, embedding, inner, outer, lattice, worstcase, modelio)


def test_the_package_exports_each_module_list_once():
    names = ["__version__", "fixture_path"] + [n for m in MODULES for n in m.__all__]
    assert gmtree.__all__ == names
    assert len(set(names)) == len(names)


def test_each_exported_name_is_the_object_its_module_exports():
    for m in MODULES:
        for n in m.__all__:
            assert getattr(gmtree, n) is getattr(m, n), (m.__name__, n)


def test_each_module_lists_what_it_defines():
    for m in MODULES:
        for n in m.__all__:
            assert getattr(getattr(m, n), "__module__", m.__name__) == m.__name__, (m.__name__, n)


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from gmtree import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(gmtree.__all__)
    assert not [n for n, v in ns.items() if isinstance(v, types.ModuleType)]


def test_module_helpers_stay_out_of_the_package_namespace():
    # importable from their modules, which is how the package itself uses them
    assert callable(gauss.check_cov) and callable(modelio.fmt)
    assert "check_cov" not in gmtree.__all__ and "fmt" not in gmtree.__all__
