"""The package's export list: every name in ``obbkit.__all__`` imports from the package, once."""

from __future__ import annotations

import obbkit


def test_every_exported_name_imports_and_none_is_listed_twice():
    assert len(set(obbkit.__all__)) == len(obbkit.__all__)
    for name in obbkit.__all__:
        scope: dict = {}
        exec(f"from obbkit import {name}", scope)
        assert scope[name] is getattr(obbkit, name)
