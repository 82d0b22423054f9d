"""Every public function, class, method and property in ``src/scenefuse`` has
a caller there, unless it is a documented library entry point, every error
type it defines has an exit code, only `binfile` and `imageio` read files, and
the package stays within its line budget."""

import ast
import importlib
import pathlib

from scenefuse import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scenefuse"

# used by the README walkthrough and the benchmark, not by the package itself
ENTRY_POINTS = {"save_weights", "save_split", "make_synthetic_dataset", "stub_backend_pair"}
# the lines of src/scenefuse/*.py, as `cat src/scenefuse/*.py | wc -l` counts them; a
# change that must grow the package raises this in its own diff and says why
MAX_SRC_LINES = 3005


def test_public_names_have_a_caller_in_src():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):  # its methods and properties
                defined.update({f"{path.stem}.{node.name}.{item.name}": item.name
                                for item in node.body if isinstance(item, ast.FunctionDef)
                                and item.name[0] != "_"})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = {qualified for qualified, name in defined.items() if name not in referenced}
    assert unreferenced == {qualified for qualified, name in defined.items()
                            if name in ENTRY_POINTS}


def test_every_error_type_maps_to_an_exit_code():
    # an input error missing from cli._data_errors() would exit 4, as a bug
    errors = []
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"scenefuse.{path.stem}")
        errors += [obj for obj in vars(module).values() if isinstance(obj, type)
                   and issubclass(obj, Exception) and obj.__module__ == module.__name__]
    assert errors
    unmapped = [f"{error.__module__}.{error.__name__}" for error in errors
                if error is not cli.CliConfigError and not issubclass(error, cli._data_errors())]
    assert unmapped == []


def test_only_the_file_layer_reads_files():
    # binfile reads JSON and bounded binary fields, imageio reads Netpbm images
    reads = {"read", "readlines", "read_text", "read_bytes", "readinto"}
    callers = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("binfile", "imageio"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in reads):
                callers.append(f"{path.name}:{node.lineno} .{node.func.attr}")
    assert callers == []


def test_package_stays_within_its_line_budget():
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES
