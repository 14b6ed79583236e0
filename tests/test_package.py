"""The package's public namespace."""

import posehar


def test_all_names_resolve_once():
    names = posehar.__all__
    assert len(names) == len(set(names)), "duplicate entries in posehar.__all__"
    missing = [name for name in names if not hasattr(posehar, name)]
    assert missing == [], f"posehar.__all__ names missing from the package: {missing}"
