import lapden


def test_every_exported_name_resolves():
    missing = [name for name in lapden.__all__ if not hasattr(lapden, name)]
    assert missing == []
