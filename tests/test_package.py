"""The package's public surface: what `from phaseintegral import *` binds
and what `dir(phaseintegral)` lists."""

import phaseintegral


def test_star_import_binds_exactly_all():
    names: dict = {}
    exec("from phaseintegral import *", names)
    names.pop("__builtins__")
    assert sorted(names) == sorted(phaseintegral.__all__)
    assert len(set(phaseintegral.__all__)) == len(phaseintegral.__all__)


def test_dir_lists_every_public_name():
    assert set(phaseintegral.__all__) <= set(dir(phaseintegral))
