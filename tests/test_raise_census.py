"""The list of the raise census (`tests/raise_census.py`), checked without running it.

The census runs the whole suite traced, so it is a CI step; here each entry
of `NEVER_RAISED` must still name a function of `src/tsk` that holds a
`raise` statement, and carry its reason.
"""

from raise_census import NEVER_RAISED, raise_sites


def test_every_never_raised_entry_names_a_function_with_a_raise():
    assert sorted(set(NEVER_RAISED) - set(raise_sites().values())) == [], "entries that name no function with a raise"
    assert all(reason.strip() for reason in NEVER_RAISED.values()), "entries without a reason"
