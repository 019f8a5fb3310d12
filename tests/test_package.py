"""Guards on the package as a whole: what ``import hyperext`` loads,
that no function of it recurses or is left unused, and how its records
behave."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import hyperext
from conftest import run_in_fresh_interpreter
from hyperext import (
    CliqueCount,
    ColoredFamily,
    ExtremalParams,
    Hypergraph,
    Matching,
    RainbowMatching,
    ShiftTrace,
    VerificationReport,
    binomial_inequality_suite,
    count_cliques,
    find_rainbow_matching,
    matching_number,
    parse,
    stabilize,
)
from hyperext.extremal import InequalityVerdict

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


def _uses(node: ast.AST) -> Counter:
    """How often each name is used under ``node``: as a name, as an
    attribute, or imported by ``from ... import``."""
    return Counter(
        getattr(n, "id", None) or getattr(n, "attr", None) or n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def orphans(trees: dict[str, ast.Module]) -> set[str]:
    """The private (underscore, non-dunder) functions and classes defined
    in ``trees``, keyed by module name, that nothing outside their own
    body uses, as ``module.name``."""
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and node.name.startswith("_")
                and not node.name.endswith("__")
                and total[node.name] == _uses(node)[node.name]
            ):
                found.add(f"{module}.{node.name}")
    return found


def test_no_private_helper_is_left_unused():
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert orphans(trees) == set()


def test_the_orphan_scan_sees_unused_helpers_in_any_module():
    trees = {
        "a": ast.parse(
            "def _called():\n"
            "    return 1\n"
            "def _only_itself(xs):\n"
            "    return [_only_itself(x) for x in xs]\n"
            "def _left_behind(xs):\n"
            "    yield from xs\n"
            "class _Shape:\n"
            "    def _method(self):\n"
            "        return _called()\n"
            "    def __len__(self):\n"
            "        return 0\n"
        ),
        "b": ast.parse(
            "from .a import _Shape\n"
            "def public():\n"
            "    return _Shape()._method()\n"
        ),
    }
    assert orphans(trees) == {"a._only_itself", "a._left_behind"}


def test_import_leaves_the_random_generators_unloaded():
    script = (
        "import sys, hyperext\n"
        "print('hyperext.matchings' in sys.modules)\n"
        "print('hyperext.randgen' in sys.modules)\n"
    )
    assert run_in_fresh_interpreter(script).split() == ["True", "False"]


@pytest.mark.parametrize(
    "run",
    [
        "import hyperext",
        "import hyperext.cli",
        "from hyperext.cli import main\n"
        "assert main(['verify', 'sweep', '--config', CONFIG, '--jobs', '2']) == 0",
    ],
    ids=["import", "import-cli", "verify-sweep"],
)
def test_start_up_leaves_dataclasses_and_fractions_unloaded(run, tmp_path):
    # only the ineq verb and eq5 need fractions; no record needs dataclasses
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("r=3, k=1, s=3..5, n=max(s, r*k+r)..8\n")
    script = (
        f"import sys\nCONFIG = {str(cfg)!r}\n{run}\n"
        "print('dataclasses' in sys.modules, 'fractions' in sys.modules)\n"
    )
    assert run_in_fresh_interpreter(script).split()[-2:] == ["False", "False"]


def _path() -> Hypergraph:
    return parse("4 2\n1 2\n1 3\n2 3\n3 4\n")


# class, its fields in declaration order (made afresh on each call), and
# an equal record built another way
RECORDS = [
    (Hypergraph, lambda: {"n": 4, "r": 2, "edges": (3, 5, 6, 12)}, _path),
    (
        ColoredFamily,
        lambda: {"n": 4, "r": 2, "members": (Hypergraph(4, 2, (3, 5, 6, 12)),)},
        lambda: ColoredFamily(4, 2, (_path(),)),
    ),
    (
        ExtremalParams,
        lambda: {"n": 9, "k": 2, "r": 3, "s": 5},
        lambda: ExtremalParams(**{"s": 5, "r": 3, "k": 2, "n": 9}),
    ),
    (
        CliqueCount,
        lambda: {"s": 3, "total": 1, "per_vertex": {1: 1, 2: 1, 3: 1, 4: 0}},
        lambda: count_cliques(_path(), 3, per_vertex=True),
    ),
    (
        InequalityVerdict,
        lambda: {"name": "eq3", "holds": None, "note": "needs b > c"},
        lambda: binomial_inequality_suite(3, 2, 2)[2],
    ),
    (Matching, lambda: {"edges": (12, 3)}, lambda: matching_number(_path())[1]),
    (
        RainbowMatching,
        lambda: {"picks": ((1, 12), (2, 3))},
        lambda: find_rainbow_matching(
            ColoredFamily(4, 2, (_path(), parse("4 2\n1 2\n3 4\n")))
        ),
    ),
    (
        ShiftTrace,
        lambda: {
            "applications": ((1, 3, 1),),
            "rounds": 2,
            "result": Hypergraph(4, 2, (3, 5, 6, 9)),
        },
        lambda: stabilize(_path()),
    ),
    (
        VerificationReport,
        lambda: {
            "cell": {"n": 3, "k": 1, "r": 2, "s": 2},
            "regime": "I",
            "claimed_bound": 3,
            "observed_max": 3,
            "witness": Hypergraph(3, 2, (3, 5, 6)),
            "status": "confirmed",
            "nodes": 1,
            "millis": 0,
            "second_best": 2,
        },
        lambda: VerificationReport(
            {"s": 2, "r": 2, "k": 1, "n": 3},
            "I",
            3,
            3,
            parse("3 2\n1 2\n1 3\n2 3\n"),
            "confirmed",
            1,
            0,
            2,
        ),
    ),
]
# one-field changes that must make the record unequal, for the three
# classes whose equality ``core._Record`` gives from their ``_fields``
CHANGED = {
    Hypergraph: {"n": 5, "r": 3, "edges": (3, 5)},
    ColoredFamily: {"members": (Hypergraph(4, 2, (3,)),)},
    ExtremalParams: {"n": 10, "k": 1, "r": 2, "s": 6},
}
DEFAULTS = {
    CliqueCount: {"per_vertex": None},
    InequalityVerdict: {"note": ""},
    VerificationReport: {"second_best": None},
}


@pytest.mark.parametrize(
    "cls, fields, built", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_records_construct_compare_hash_and_stay_immutable(cls, fields, built):
    values = fields()
    rec = cls(*values.values())
    assert [getattr(rec, name) for name in values] == list(values.values())
    assert rec == cls(**fields()) == built()
    if isinstance(rec, tuple):  # the six value records are named tuples
        assert rec == tuple(values.values())
    for name, other in CHANGED.get(cls, {}).items():
        assert rec != cls(**{**values, name: other})

    defaults = DEFAULTS.get(cls, {})
    required = {name: v for name, v in values.items() if name not in defaults}
    for short in (cls(*required.values()), cls(**required)):
        assert {name: getattr(short, name) for name in defaults} == defaults

    try:
        hash(tuple(values.values()))
    except TypeError:  # a dict field
        pass
    else:
        assert hash(rec) == hash(built())

    text = repr(rec)
    assert text.startswith(f"{cls.__name__}(")
    for name, value in values.items():
        assert f"{name}={value!r}" in text

    for name in [*values, "other"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(**fields())

    if cls is Hypergraph:
        assert rec.edge_set == frozenset(values["edges"])
        assert rec.edge_set is rec.edge_set


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ColoredFamily(4, 2, ()), "a colored family needs at least one member"),
        (
            lambda: ColoredFamily(4, 2, (_path(), Hypergraph(5, 2, (3,)))),
            "member 2 has (n, r) = (5, 2), expected (4, 2)",
        ),
        (lambda: ExtremalParams(0, 1, 2, 2), "n, k, r, s must be positive"),
        (lambda: ExtremalParams(9, 2, 3, 2), "need s >= r, got s=2, r=3"),
    ],
    ids=["no-member", "member-off-grid", "not-positive", "s-below-r"],
)
def test_records_reject_bad_fields(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
