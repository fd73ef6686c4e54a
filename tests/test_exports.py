import tcone


def test_every_export_resolves():
    missing = [name for name in tcone.__all__ if not hasattr(tcone, name)]
    assert missing == []
    assert len(set(tcone.__all__)) == len(tcone.__all__)
