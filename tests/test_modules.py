"""The package's module lists: every name a module's ``__all__`` lists exists."""

import importlib
import pkgutil

import pytest

import labelgames

LISTING = sorted(
    info.name
    for info in pkgutil.iter_modules(labelgames.__path__)
    if hasattr(importlib.import_module(f"labelgames.{info.name}"), "__all__")
)


def test_the_listing_modules_are_found():
    assert {"combine", "game", "labels"} <= set(LISTING)


@pytest.mark.parametrize("name", LISTING)
def test_star_import_finds_every_listed_name(name):
    # A star import raises AttributeError on a listed name that is gone.
    namespace = {}
    exec(f"from labelgames.{name} import *", namespace)
    assert set(importlib.import_module(f"labelgames.{name}").__all__) <= namespace.keys()
