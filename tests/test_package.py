"""The package's export table: each public name once, resolved on first use."""

import importlib

import pytest

import gutheory


def test_all_has_no_duplicates_and_each_entry_is_its_home_modules_object():
    assert len(gutheory.__all__) == len(set(gutheory.__all__))
    listed = []
    for module, names in gutheory._EXPORTS.items():
        home = importlib.import_module(f"gutheory.{module}")
        for name in names:
            value = getattr(gutheory, name)
            assert value is getattr(home, name), name
            # Defined there, not re-exported from elsewhere.
            assert name.isupper() or value.__module__ == home.__name__, name
            listed.append(name)
    assert sorted(listed) == gutheory.__all__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gutheory import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gutheory.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gutheory.nope
    with pytest.raises(ImportError):
        from gutheory import nope  # noqa: F401
