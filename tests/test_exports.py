"""The package root binds no public name but its submodules: every name is
imported from the module that defines it, so no list of re-exports can grow
back or dangle."""

import types

import spsnet


def test_the_package_root_binds_only_submodules():
    for name, value in vars(spsnet).items():
        if not name.startswith("_"):
            assert isinstance(value, types.ModuleType) and value.__name__ == f"spsnet.{name}", name
