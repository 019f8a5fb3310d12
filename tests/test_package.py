"""Guards on the package as a whole: what ``import hyperext`` loads, and
that no function of it recurses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hyperext

PACKAGE = Path(hyperext.__file__).resolve().parent

# qualified name -> why it may call itself
MAY_RECURSE = {
    "cli._sweep_int.ev": (
        "its input is one config expression, and its RecursionError "
        "already exits 2"
    ),
}


def self_calls(tree: ast.Module, module: str) -> set[str]:
    """The qualified names of the functions in ``tree`` that call
    themselves by name, as ``f(...)`` or as ``x.f(...)``."""
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                for call in ast.walk(child):
                    if isinstance(call, ast.Call) and (
                        getattr(call.func, "id", None) == child.name
                        or getattr(call.func, "attr", None) == child.name
                    ):
                        found.add(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_no_function_calls_itself():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text()), path.stem)
    assert found == set(MAY_RECURSE)


def test_the_scan_sees_direct_nested_and_method_recursion():
    tree = ast.parse(
        "def f(n):\n"
        "    return f(n - 1)\n"
        "def g():\n"
        "    def h(x):\n"
        "        return [h(y) for y in x]\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.m()\n"
        "def plain():\n"
        "    return f(1)\n"
    )
    assert self_calls(tree, "mod") == {"mod.f", "mod.g.h", "mod.C.m"}


def test_import_leaves_the_random_generators_unloaded():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, hyperext\n"
        "print('hyperext.matchings' in sys.modules)\n"
        "print('hyperext.randgen' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]
