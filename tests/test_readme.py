"""README's library tour, run as a doctest, and the package root it
imports from."""

import doctest
import pathlib
import types

import palinradix

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour():
    assert doctest.testfile(str(README), module_relative=False) == (0, 9)


def test_root_exports_the_tour_names():
    # every other name is imported from its module
    tour = ["min_pal_base", "pow2_complete_scan", "split_common_factor"]
    assert palinradix.__all__ == tour + ["__version__"]
    assert sorted(
        name
        for name, value in vars(palinradix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ) == tour
