"""The package's exports: ``spsnet.__all__`` names exactly the public objects
``spsnet/__init__.py`` binds, so no export dangles and none is left out."""

import types

import spsnet


def test_all_is_exactly_the_public_names_the_package_binds():
    bound = {name for name, value in vars(spsnet).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(spsnet.__all__) == len(set(spsnet.__all__))
    assert set(spsnet.__all__) == bound  # so every exported name resolves
