import forceps


def test_every_export_resolves_once():
    names = forceps.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(forceps, n)] == []
