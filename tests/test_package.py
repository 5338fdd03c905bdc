import axonsim


def test_all_is_sorted_unique_and_resolves():
    names = list(axonsim.__all__)
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(axonsim, n)]
    assert missing == []
