"""The package's public surface: every name it exports resolves."""

import re
from pathlib import Path

import latticeineq


def test_every_exported_name_resolves():
    exported = latticeineq.__all__
    assert [name for name in exported if not hasattr(latticeineq, name)] == []
    assert len(set(exported)) == len(exported)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from latticeineq import *", namespace)
    assert set(latticeineq.__all__) <= namespace.keys()


def test_only_core_touches_a_functions_caches():
    # the line passes and the counts kept on a SparseFunction, with the
    # counts' norm and entropy memos, have one owner: no other module reads
    # or fills them, runs a pass or reads one, or takes a kept sum itself
    cache = re.compile(r"\._lines|\._counts|_line_pass|\.norms\b|\.entropies\b"
                       r"|_float_norm|_entropy_sum|axis_lines")
    package = Path(latticeineq.__file__).parent
    touching = [path.name for path in sorted(package.glob("*.py"))
                if cache.search(path.read_text(encoding="utf-8"))]
    assert touching == ["core.py"]
