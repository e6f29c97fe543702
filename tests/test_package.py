import amenlab


def test_every_exported_name_resolves():
    missing = [name for name in amenlab.__all__ if not hasattr(amenlab, name)]
    assert missing == []
