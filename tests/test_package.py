"""The package's public namespace and the layout of its source."""

import ast
from pathlib import Path

import posehar


def test_all_names_resolve_once():
    names = posehar.__all__
    assert len(names) == len(set(names)), "duplicate entries in posehar.__all__"
    missing = [name for name in names if not hasattr(posehar, name)]
    assert missing == [], f"posehar.__all__ names missing from the package: {missing}"


# Each call that carries a rule of its own, and the one module allowed to make
# it: archives are read and written by one codec, and the motion frames of a
# normalized sequence are derived in one place.
OWNERS = {"np.load(": "archive.py", "np.savez(": "archive.py", "np.diff(": "preprocess.py"}


def test_each_owned_call_is_made_by_one_module():
    sources = {path.name: path.read_text() for path in Path(posehar.__file__).parent.glob("*.py")}
    for call, owner in OWNERS.items():
        users = sorted(name for name, text in sources.items() if call in text)
        assert users == [owner], f"{call} appears in {users}"


def test_maps_are_trained_by_one_loop():
    """Every map trains in the lockstep loop: sample orders are drawn in one
    schedule builder, and ``train_som`` only delegates."""
    path = Path(posehar.__file__).parent / "som.py"
    text = path.read_text()
    functions = {node.name: node for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)}
    assert text.count("rng.permutation(") == 1
    assert "rng.permutation(" in ast.get_source_segment(text, functions["_schedule"])
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(functions["train_som"]))


def test_lstm_kernels_read_no_mask():
    """Padding always follows each sample's valid steps, so the recurrence
    needs no mask: neither LSTM kernel takes one."""
    path = Path(posehar.__file__).parent / "classifier.py"
    functions = {node.name: node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_lstm_forward", "_lstm_backward"):
        params = [arg.arg for arg in ast.walk(functions[name].args) if isinstance(arg, ast.arg)]
        assert params and "mask" not in params, name


def test_distance_kernel_takes_differences_from_a_product():
    """The distance kernel gets its frame-minus-prototype differences from a
    k=2 matrix product, not a broadcast subtraction, and divides each
    subset's sums only after their per-block minimum."""
    path = Path(posehar.__file__).parent / "embed.py"
    kernel = next(node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "_nearest_distances")
    lines: dict[str, list[int]] = {}
    for node in ast.walk(kernel):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            lines.setdefault(node.func.attr, []).append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            lines.setdefault("divide", []).append(node.lineno)
    assert "subtract" not in lines and "matmul" in lines
    assert lines["reduceat"] and lines["divide"]
    assert min(lines["divide"]) > max(lines["reduceat"])
