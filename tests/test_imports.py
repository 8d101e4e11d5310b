"""The lint steps: every name a library module imports is used in it,
every public function, class, method, property and annotated field of the
library is read somewhere in the library, so is every module-level private
function, class and constant, importing the CLI loads a fixed
set of extension modules, each command loads only the library modules it
runs, and no library module imports `dataclasses`.

The second check matches names only, not the object they are read on, so a
member counts as read when any object anywhere has an attribute read under
the same name.  Echoed fields such as a report's `p`, `q` or `n` slip through
it, since `kind.p`, `pair.n` and the like are read all over the library."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import unicomplex

MODULES = sorted(Path(unicomplex.__file__).parent.glob("*.py"))

# The library surface that perfbench/ calls from outside src/: kept public
# even where nothing in src/ reads it.
EXTERNAL = {
    "cli.dispatch",
    "universal_fp.build_universal",
    "universal_fp.UniversalKind",
    "scomplex.SimplicialComplex.link",
    "scomplex.SimplicialComplex.facets",
    "scomplex.SimplicialComplex.from_simplices",
    "scomplex.SimplicialComplex.n_simplices",
    "scomplex.SimplicialComplex.n_vertices",
    "morse.greedy_matching",
}


def unused_imports(source):
    """Names bound by import statements (at any depth, `__future__` aside)
    that no Name node of the module reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import gcd, lcm\n"
        "def f():\n"
        "    from itertools import count\n"
        "    return os.path, gcd\n"
    )
    assert unused_imports(source) == [(3, "j"), (4, "lcm"), (6, "count")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _members(cls):
    """The names of the methods (properties included) and annotated fields
    defined in a class body."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id


def public_definitions(sources):
    """("module.name" or "module.Class.member", name) for each public
    module-level function and class, and each public method, property and
    annotated field of the public classes, of the sources {module: text}."""
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((f"{module}.{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    defined.extend(
                        (f"{module}.{node.name}.{name}", name)
                        for name in _members(node) if not name.startswith("_"))
    return defined


def read_names(sources):
    """The names that a Name or Attribute node of any of the sources
    {module: text} reads."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_public_names(sources):
    """The public definitions whose name no Name or Attribute node of any
    of the sources {module: text} reads, as qualified names, sorted."""
    read = read_names(sources)
    return sorted(qual for qual, name in public_definitions(sources)
                  if name not in read)


def test_unread_public_name_detector():
    sources = {
        "a": (
            "def used():\n    pass\n"
            "def unused():\n    pass\n"
            "def _private():\n    pass\n"
            "class C:\n"
            "    x: int\n"
            "    y: int = 0\n"
            "    _z: int\n"
            "    w = 0\n"
            "    def m(self):\n        pass\n"
            "    def n(self):\n        pass\n"
            "    def _p(self):\n        pass\n"
            "    @property\n"
            "    def q(self):\n        pass\n"
            "    @property\n"
            "    def r(self):\n        pass\n"
            "class _Hidden:\n"
            "    def hook(self):\n        pass\n"
            "    v: int\n"
        ),
        "b": "from a import C, unused, used\nused()\nf = C().m\nc = C()\nc.x, c.q\n",
    }
    assert unread_public_names(sources) == ["a.C.n", "a.C.r", "a.C.y", "a.unused"]


def test_public_names_are_read_in_the_library():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert [q for q in unread_public_names(sources) if q not in EXTERNAL] == []


def private_definitions(sources):
    """(module, name) for each module-level function, class and assigned
    constant of the sources {module: text} whose name starts with one `_`."""
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return defined


def unread_private_names(sources):
    """The private definitions whose name no Name or Attribute node of any
    of the sources reads, as (module, name), sorted."""
    read = read_names(sources)
    return sorted(d for d in private_definitions(sources) if d[1] not in read)


def test_unread_private_name_detector():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED, _PAIR = 2, 3\n"
            "_NOTE: int = 4\n"
            "__dunder__ = 5\n"
            "def _helper():\n    return _USED\n"
            "def _orphan():\n    pass\n"
            "class _Box:\n    _field = 0\n"
            "def public():\n    pass\n"
        ),
        "b": "from a import _helper, _Box\n_helper()\nb = _Box\nprint(b._PAIR)\n",
    }
    assert unread_private_names(sources) == [
        ("a", "_NOTE"), ("a", "_UNUSED"), ("a", "_orphan")]


def test_private_names_are_read_in_the_library():
    sources = {path.name: path.read_text() for path in MODULES}
    assert private_definitions(sources)  # the scan sees the library's names
    assert unread_private_names(sources) == []


def test_external_surface_is_defined():
    # a rename in src/ would otherwise drop an entry from the lint above
    # without a failure, and break the callers outside src/
    sources = {path.stem: path.read_text() for path in MODULES}
    defined = {qual for qual, _ in public_definitions(sources)}
    assert sorted(EXTERNAL - defined) == []


# The extension modules (shared objects) that `import unicomplex.cli` loads
# into an interpreter started without the site hooks.  Each one costs
# resident memory in every run of the CLI: a module-level `import array`
# alone added 77 KiB to the peak RSS of a homology benchmark pass.  A change
# to this set is deliberate, and this list changes with it.
CLI_EXTENSION_MODULES = ["_bisect", "_heapq", "_json"]

SRC = str(Path(unicomplex.__file__).resolve().parents[1])


def fresh_run(probe, *args):
    """The stdout of `probe` run with `args` in a fresh interpreter that
    imports unicomplex from this checkout, without the site hooks."""
    out = subprocess.run([sys.executable, "-S", "-c",
                          f"import sys\nsys.path.insert(0, {SRC!r})\n" + probe, *args],
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_loads_a_fixed_set_of_extension_modules():
    probe = (
        "from importlib.machinery import EXTENSION_SUFFIXES\n"
        "before = set(sys.modules)\n"
        "import unicomplex.cli\n"
        "print(' '.join(sorted(name for name in set(sys.modules) - before\n"
        "      if getattr(sys.modules[name], '__file__', None)\n"
        "      and sys.modules[name].__file__.endswith(tuple(EXTENSION_SUFFIXES)))))\n"
    )
    assert fresh_run(probe).split() == CLI_EXTENSION_MODULES


# Each command imports the library modules it runs, and no others: the
# modules of the package loaded by one command in a fresh process, beyond
# the three that `import unicomplex.cli` loads.
CLI_IMPORT = ["cli", "errors", "scomplex"]
COMMAND_MODULES = [
    (["fvector", "--variant", "K", "--p", "3", "--n", "3"], ["fplin", "universal_fp"]),
    (["homology", "--facets", "{facets}"], ["homology"]),
    (["morse", "--variant", "K", "--p", "2", "--n", "3"],
     ["fplin", "morse", "universal_fp"]),
    (["zcheck", "--pair", "{pair}"], ["fplin", "zlattice"]),
    (["buchstaber", "--facets", "{facets}"], ["buchstaber", "fplin"]),
    (["bhargava", "--set", "integers", "--k", "5", "--primes", "2"],
     ["bhargava", "fplin"]),
]
# the other commands are only kept clear of `verify`, which loads every module
OTHER_COMMANDS = [
    ["build", "--variant", "K", "--p", "2", "--n", "3"],
    ["build", "--ring", "z", "--variant", "K", "--n", "2", "--max-norm", "2"],
    ["homology", "--variant", "K", "--p", "2", "--n", "3", "--reisner"],
    ["morse", "--facets", "{facets}", "--pivots", "0"],
    ["shelling", "--variant", "K", "--p", "2", "--n", "3"],
    ["shifted", "--variant", "K", "--p", "2", "--n", "3"],
    ["buchstaber", "--variant", "K", "--p", "2", "--n", "3"],
    ["zcheck"],
    ["bhargava", "--set", "geometric:1:2", "--k", "4", "--primes", "2,3"],
]
LOADED_BY_MAIN = (
    "import unicomplex.cli\n"
    "code = unicomplex.cli.main(sys.argv[1:])\n"
    "print('exit', code)\n"
    "print(' '.join(sorted(name.partition('.')[2] for name in sys.modules\n"
    "      if name.startswith('unicomplex.'))))\n"
    "print('dataclasses' in sys.modules)\n"
)


def loaded_by_command(argv, tmp_path):
    """(exit code, sorted unicomplex modules, whether dataclasses loaded)
    after `main(argv)` in a fresh interpreter; {facets} and {pair} in argv
    name a small facet file and a quasitoric pair file."""
    facets, pair = tmp_path / "t.facets", tmp_path / "cp2.pair"
    facets.write_text("a b c\nb c d\n")
    pair.write_text("1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n")
    argv = [a.format(facets=facets, pair=pair) for a in argv]
    *_, code, modules, dataclasses = fresh_run(LOADED_BY_MAIN, *argv).splitlines()
    return code, modules.split(), dataclasses == "True"


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=lambda a: a[0])
def test_command_loads_only_the_modules_it_runs(argv, modules, tmp_path):
    assert loaded_by_command(argv, tmp_path) == (
        "exit 0", sorted(CLI_IMPORT + modules), False)


@pytest.mark.parametrize("argv", OTHER_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_other_commands_do_not_load_verify(argv, tmp_path):
    code, modules, dataclasses = loaded_by_command(argv, tmp_path)
    assert code == "exit 0" and "verify" not in modules and not dataclasses


# `array` is an extension module, and only the two-row finish over Z and
# the greedy matching import it, each in its own body: a pair check loads
# no copy of it, a build over Z does
ARRAY_LOADED = (
    "from importlib.machinery import EXTENSION_SUFFIXES\n"
    "import unicomplex.cli\n"
    "code = unicomplex.cli.main(sys.argv[1:])\n"
    "print('exit', code)\n"
    "print(getattr(sys.modules.get('array'), '__file__', '')\n"
    "      .endswith(tuple(EXTENSION_SUFFIXES)))\n"
)


@pytest.mark.parametrize("argv, loaded", [
    (["zcheck", "--pair", "{pair}"], False),
    (["build", "--ring", "z", "--variant", "K", "--n", "3", "--max-norm", "2"], True),
], ids=["zcheck --pair", "build --ring z"])
def test_array_extension_loads_only_with_the_z_finish(argv, loaded, tmp_path):
    pair = tmp_path / "cp2.pair"
    pair.write_text("1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n")
    argv = [a.format(pair=pair) for a in argv]
    *_, code, has_array = fresh_run(ARRAY_LOADED, *argv).splitlines()
    assert (code, has_array) == ("exit 0", str(loaded))


def test_verify_all_loads_verify(tmp_path):
    code, modules, dataclasses = loaded_by_command(
        ["verify-all", "--pairs", "2,2", "--oracle-samples", "20"], tmp_path)
    assert code == "exit 0" and "verify" in modules and not dataclasses


def test_no_library_module_imports_dataclasses():
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name
