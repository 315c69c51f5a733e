"""The public API: what `gbstates.__all__` exports is there, once."""

import gbstates


def test_every_exported_name_resolves_and_none_is_listed_twice():
    names = gbstates.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(gbstates, n)]
    assert not missing, missing
