"""Function table: slots and replacement."""

import pytest

from repro.core.errors import ActionError
from repro.core.functions import FunctionTable


@pytest.fixture
def table():
    return FunctionTable()


def test_register_and_call_through_slot(table):
    table.register("f", lambda x: x + 1)
    assert table.slot("f")(1) == 2


def test_duplicate_slot_rejected(table):
    table.register("f", lambda: None)
    with pytest.raises(ActionError, match="already registered"):
        table.register("f", lambda: None)


def test_replace_rebinds_slot(table):
    table.register("policy", lambda: "learned")
    table.register_implementation("fallback", lambda: "safe")
    table.replace("policy", "fallback")
    slot = table.slot("policy")
    assert slot() == "safe"
    assert slot.swap_count == 1


def test_replace_to_another_slots_implementation(table):
    table.register("a", lambda: "A")
    table.register("b", lambda: "B")
    table.replace("a", "b")
    assert table.slot("a")() == "B"


def test_unknown_slot_error_lists_known(table):
    table.register("known", lambda: None)
    with pytest.raises(ActionError, match="known"):
        table.slot("unknown")


def test_unknown_implementation_rejected(table):
    table.register("f", lambda: None)
    with pytest.raises(ActionError, match="unknown implementation"):
        table.replace("f", "ghost")


def test_duplicate_implementation_rejected(table):
    table.register_implementation("x", lambda: None)
    with pytest.raises(ActionError):
        table.register_implementation("x", lambda: None)


def test_contains(table):
    table.register("b", lambda: None)
    table.register("a", lambda: None)
    assert "a" in table
    assert "zz" not in table


def test_replace_is_repeatable(table):
    table.register("f", lambda: 1)
    table.register_implementation("g", lambda: 2)
    table.replace("f", "g")
    table.replace("f", "g")
    assert table.slot("f").swap_count == 2
