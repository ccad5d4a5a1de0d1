"""Every mutation that ``tests/mutants.py`` lists still applies."""

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_once():
    assert MUTANTS
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)
    for name, path, old, new, tests in MUTANTS:
        assert path.startswith("src/") and old != new, name
        assert (ROOT / path).read_text().count(old) == 1, name
        assert tests and all((ROOT / t).is_file() for t in tests), name
