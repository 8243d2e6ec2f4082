import ddforms


def test_exports_resolve():
    assert len(ddforms.__all__) == len(set(ddforms.__all__))
    for name in ddforms.__all__:
        assert hasattr(ddforms, name), name
