"""The package's public names, which ``__init__.py`` lists twice by hand:
once in its imports and once in ``__all__``."""

import types

import rainbowtrees


def test_all_lists_every_public_attribute_but_the_modules():
    public = {
        name
        for name, value in vars(rainbowtrees).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(rainbowtrees.__all__) == sorted(public)


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from rainbowtrees import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(rainbowtrees, name) for name in rainbowtrees.__all__}
