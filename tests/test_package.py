"""The package's public surface: every name it exports resolves."""

import latticeineq


def test_every_exported_name_resolves():
    exported = latticeineq.__all__
    assert [name for name in exported if not hasattr(latticeineq, name)] == []
    assert len(set(exported)) == len(exported)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from latticeineq import *", namespace)
    assert set(latticeineq.__all__) <= namespace.keys()
