"""The public API: every name that ``wavetrack`` exports has a caller in the
program."""

from api_census import census


def test_every_public_name_is_loaded_in_src():
    # a name that only tests and demos load is a candidate for deletion
    names, counts = census()
    assert [name for name in names if not counts["src"][name]] == []
