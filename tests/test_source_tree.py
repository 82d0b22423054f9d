"""Every public function and class in ``src/scenefuse`` has a caller there,
unless it is a documented library entry point."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scenefuse"

# used by the README walkthrough and the benchmark, not by the package itself
ENTRY_POINTS = {"save_weights", "save_split", "make_synthetic_dataset", "stub_backend_pair"}


def test_public_names_have_a_caller_in_src():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = {f"{module}.{name}" for name, module in defined.items()
                    if name not in referenced}
    assert unreferenced == {f"{defined[name]}.{name}" for name in ENTRY_POINTS}
