"""The package's public names: ``__init__.py`` declares them once, in its
import block, and derives ``__all__`` from the names that block binds."""

import rainbowtrees
from rainbowtrees import coloring, constructor, errors, forest, oracle, verifier

LIBRARY = (coloring, constructor, errors, forest, oracle, verifier)


def test_every_listed_name_comes_from_a_library_module():
    # a stdlib helper imported into __init__.py would enter the list; it is
    # the attribute of none of these
    strays = [
        name
        for name in rainbowtrees.__all__
        if not any(getattr(module, name, None) is getattr(rainbowtrees, name) for module in LIBRARY)
    ]
    assert strays == []


def test_all_is_sorted_without_repeats():
    assert rainbowtrees.__all__ == sorted(set(rainbowtrees.__all__))


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from rainbowtrees import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(rainbowtrees, name) for name in rainbowtrees.__all__}
