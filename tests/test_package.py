"""The package's public namespace and the layout of its source."""

from pathlib import Path

import posehar


def test_all_names_resolve_once():
    names = posehar.__all__
    assert len(names) == len(set(names)), "duplicate entries in posehar.__all__"
    missing = [name for name in names if not hasattr(posehar, name)]
    assert missing == [], f"posehar.__all__ names missing from the package: {missing}"


def test_one_module_reads_and_writes_archives():
    sources = {path.name: path.read_text() for path in Path(posehar.__file__).parent.glob("*.py")}
    for call in ("np.load(", "np.savez("):
        users = sorted(name for name, text in sources.items() if call in text)
        assert users == ["archive.py"], f"{call} appears in {users}"
