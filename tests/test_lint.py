"""Checks a linter would make, written on the stdlib's `ast` alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "epshift"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads, with their line numbers."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# __init__.py imports to re-export, so every name it imports is unused there;
# the tests are held too, so no import of a deleted name lingers in them
IMPORTERS = {**{p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"},
             **{f"tests/{p.name}": p for p in (ROOT / "tests").glob("*.py")}}


@pytest.mark.parametrize("module", sorted(IMPORTERS))
def test_every_imported_name_is_used(module):
    assert unused_imports(ast.parse(IMPORTERS[module].read_text(), module)) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os, os.path\nfrom typing import Any, Optional as Opt\n"
                     "from __future__ import annotations\nx: Opt[int] = os.sep\n")
    assert unused_imports(tree) == ["Any (line 2)"]


def foreign_imports(tree: ast.Module) -> list[str]:
    """The top-level modules a module imports that are neither epshift nor
    in the stdlib, with their line numbers; a relative import is epshift."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.partition(".")[0], node.lineno))
    return [f"{name} (line {line})" for name, line in found
            if name != "epshift" and name not in sys.stdlib_module_names]


# the runtime keeps no dependency beyond the stdlib
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_import_is_epshift_or_the_stdlib(module):
    assert foreign_imports(ast.parse((SRC / module).read_text(), module)) == []


def test_a_foreign_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path, numpy.linalg\n"
                     "from . import words\nfrom .words import Word\nfrom epshift.errors import E\n"
                     "from hypothesis import given\n\ndef f():\n    import attr as a\n"
                     "    from array import array\n")
    assert foreign_imports(tree) == ["numpy (line 2)", "hypothesis (line 6)", "attr (line 9)"]


# the oldest Python that pyproject.toml's requires-python admits; the tests may
# run on a newer one, and the parser's feature_version refuses newer syntax
OLDEST_PYTHON = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                         (ROOT / "pyproject.toml").read_text(), re.M).groups()))


# every source module and every test module: Tier-1 runs on that Python too
PARSED = {"__init__.py": SRC / "__init__.py", **IMPORTERS}


@pytest.mark.parametrize("module", sorted(PARSED))
def test_every_module_parses_as_the_oldest_supported_python(module):
    ast.parse(PARSED[module].read_text(), module, feature_version=OLDEST_PYTHON)


def test_newer_syntax_is_refused_at_the_oldest_supported_python():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST_PYTHON)


def read_names(node: ast.AST) -> set[str]:
    """The names a node reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unread_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """The private module-level functions of the modules that nothing but
    their own definition reads, by name or as an attribute, with their
    modules and line numbers."""
    reads = [(stmt, read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{stmt.name} ({module} line {stmt.lineno})"
            for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name.startswith("_") and not stmt.name.endswith("__")
            and not any(other is not stmt and stmt.name in names for other, names in reads)]


def test_every_private_function_is_read():
    trees = {p.name: ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))}
    assert unread_private_functions(trees) == []


def test_an_unread_private_function_is_found():
    trees = {"a.py": ast.parse("def _recursive():\n    return _recursive()\n\n"
                               "def _called():\n    pass\n\n"
                               "def __getattr__(name):\n    pass\n"),
             "b.py": ast.parse("from . import a\n\n"
                               "def _by_name():\n    pass\n\n"
                               "def public():\n    a._called()\n    return [_by_name]\n")}
    assert unread_private_functions(trees) == ["_recursive (a.py line 1)"]
    del trees["b.py"]
    assert unread_private_functions(trees) == ["_recursive (a.py line 1)", "_called (a.py line 4)"]


def quick_start_calls(readme: str) -> set[str]:
    """The names README's "Library quick start" calls as `es.<name>`."""
    section = readme.partition("\n## Library quick start\n")[2].partition("\n## ")[0]
    return set(re.findall(r"\bes\.(\w+)", section))


QUICK_START = quick_start_calls((ROOT / "README.md").read_text())
KERNEL = ("words.py", "sequences.py", "bezout.py", "sturmian.py", "classify.py", "jsonio.py")


def unneeded_kernel_names(trees: dict[str, ast.Module], quick_start: set[str]) -> list[str]:
    """The public module-level functions and classes of the kernel modules
    that the quick start does not call and that no statement reads, by name
    or as an attribute, but their own definition and those of verify.py and
    __init__.py, with their modules and line numbers: a helper that only
    verify runs lives in verify.py, and one that nothing runs is deleted."""
    reads = [(stmt, read_names(stmt)) for module, tree in trees.items()
             if module not in ("verify.py", "__init__.py") for stmt in tree.body]
    return [f"{stmt.name} ({module} line {stmt.lineno})"
            for module, tree in trees.items() if module in KERNEL for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in quick_start
            and not any(other is not stmt and stmt.name in names for other, names in reads)]


def test_every_public_kernel_name_is_needed():
    trees = {p.name: ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))}
    assert unneeded_kernel_names(trees, QUICK_START) == []


def test_an_unneeded_kernel_name_is_found():
    trees = {"words.py": ast.parse("class Word:\n    def f(self) -> Word:\n        return Word()\n\n"
                                   "def rotate(w):\n    return rotate(w)\n\n"
                                   "def word(text):\n    return Word()\n\n"
                                   "def primitive_root(w):\n    pass\n\n"
                                   "def is_primitive(w):\n    pass\n"),
             "verify.py": ast.parse("from .words import rotate\n\ndef check():\n    rotate(x)\n"),
             "__init__.py": ast.parse("from .words import rotate\n\nrotate\n"),
             "cli.py": ast.parse("from . import words\n\ndef main():\n"
                                 "    return words.primitive_root(word('0'))\n\n"
                                 "def unread():\n    pass\n")}
    assert unneeded_kernel_names(trees, {"is_primitive"}) == ["rotate (words.py line 5)"]
    del trees["cli.py"]
    assert unneeded_kernel_names(trees, set()) == [
        "rotate (words.py line 5)", "word (words.py line 8)",
        "primitive_root (words.py line 11)", "is_primitive (words.py line 14)"]


def unneeded_exports(init: ast.Module, cli: ast.Module, quick_start: set[str]) -> list[str]:
    """The names `epshift/__init__` imports that cli.py does not read, by
    name or as an attribute, and the quick start does not call, with their
    line numbers."""
    read = read_names(cli) | quick_start
    return [f"{alias.asname or alias.name} (line {node.lineno})"
            for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
            if (alias.asname or alias.name) not in read]


def test_epshift_exports_only_what_the_cli_reads_or_the_quick_start_calls():
    init, cli = (ast.parse((SRC / name).read_text(), name) for name in ("__init__.py", "cli.py"))
    assert unneeded_exports(init, cli, QUICK_START) == []


def test_an_unneeded_export_is_found():
    init = ast.parse("from .sequences import EPSeq, make_ep, shift\n"
                     "from .words import word as w, rotate\n")
    cli = ast.parse("from . import sequences\n\ndef main(x: EPSeq):\n"
                    "    return sequences.make_ep(x, rotate)\n")
    assert unneeded_exports(init, cli, {"w"}) == ["shift (line 1)"]
    assert unneeded_exports(init, ast.parse(""), set()) == [
        "EPSeq (line 1)", "make_ep (line 1)", "shift (line 1)", "w (line 2)", "rotate (line 2)"]


def test_readme_states_the_source_line_count():
    # the Layout section's count, against what `wc -l src/epshift/*.py` totals
    stated = re.search(r"^src/epshift/ +\(([\d,]+) lines\)$", (ROOT / "README.md").read_text(), re.M)
    assert stated, "README has no `src/epshift/     (N lines)` line"
    total = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    assert int(stated[1].replace(",", "")) == total


def dict_reads(tree: ast.Module) -> list[str]:
    """The `.__dict__` reads of a module, with their line numbers, but for
    `cls.__dict__` in `Value.__init_subclass__`, which reads a class's own
    annotations and defaults: values keep their fields and memos as plain
    attributes (the `Value` docstring)."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Value":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init_subclass__":
                    allowed |= {id(node.value) for node in ast.walk(fn)
                                if isinstance(node, ast.Attribute) and node.attr == "__dict__"
                                and isinstance(node.value, ast.Name) and node.value.id == "cls"}
    found = sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "__dict__"
                   and id(node.value) not in allowed)
    return [f"{text} (line {line})" for line, text in found]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_dict_is_read_but_the_value_base_class_own(module):
    assert dict_reads(ast.parse((SRC / module).read_text(), module)) == []


def test_a_dict_read_is_found():
    tree = ast.parse("class Value:\n    def __init_subclass__(cls):\n"
                     "        cls.f = cls.__dict__.get('f')\n        self.__dict__.clear()\n\n"
                     "    def _trusted(cls):\n        return cls.__dict__\n\n"
                     "class Code(Value):\n    def __init_subclass__(cls):\n"
                     "        return cls.__dict__\n\n"
                     "def memo(code):\n    return code.__dict__.get('_by_byte')\n")
    assert dict_reads(tree) == ["self.__dict__ (line 4)", "cls.__dict__ (line 7)",
                                "cls.__dict__ (line 11)", "code.__dict__ (line 14)"]


def attribute_reads(tree: ast.Module, attr: str, allowed: frozenset) -> list[str]:
    """The reads of attribute `attr`, with their line numbers, outside the
    classes and functions named in `allowed`.  An `attr=` keyword reads none."""
    inside = {id(node) for scope in ast.walk(tree)
              if isinstance(scope, (ast.ClassDef, ast.FunctionDef)) and scope.name in allowed
              for node in ast.walk(scope)}
    found = sorted((node.lineno, node.col_offset, ast.unparse(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and id(node) not in inside
                   and node.attr == attr)
    return [f"{text} (line {line})" for line, _, text in found]


# a code's `_table` is read only in its class: `read` alone picks its route
CODE_CLASS = frozenset({"SlidingBlockCode"})


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_code_table_is_read_outside_the_code_class(module):
    tree = ast.parse((SRC / module).read_text(), module)
    assert attribute_reads(tree, "_table", CODE_CLASS) == []


def test_a_code_table_read_is_found():
    tree = ast.parse("class SlidingBlockCode:\n    def read(self, buf):\n"
                     "        return self._table[buf]\n\n"
                     "def image(code, block):\n    table = code._table\n"
                     "    return code._table[block], code.entries\n\n"
                     "class Other:\n    def f(self, code):\n        return code._table[0]\n\n"
                     "def built(table):\n    return SlidingBlockCode(_table=table)\n")
    assert attribute_reads(tree, "_table", CODE_CLASS) == [
        "code._table (line 6)", "code._table (line 7)", "code._table (line 11)"]
    assert attribute_reads(tree, "_table", frozenset({"image", "Other"})) == [
        "self._table (line 3)"]
    tree = ast.parse("def test_scan(x):\n    scan = _normal_form(x)\n"
                     "    return scan.buf, buf, _Scan(buf=b'')\n")
    assert attribute_reads(tree, "buf", frozenset()) == ["scan.buf (line 3)"]
    assert attribute_reads(tree, "buf", frozenset({"test_scan"})) == []


# the one test that states which route a code's table takes; every other
# test holds a code to its behaviour, and a scan to its window and defect
ROUTE_TEST = frozenset({"test_1_block_image_tests_read_no_block_on_the_byte_path"})


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "tests").glob("*.py")))
def test_no_test_reads_a_code_table_or_a_scan_buffer(module):
    tree = ast.parse((ROOT / "tests" / module).read_text(), module)
    assert attribute_reads(tree, "_table", ROUTE_TEST) == []
    assert attribute_reads(tree, "buf", ROUTE_TEST) == []


def trusted_constructors(tree: ast.Module) -> dict[str, list[str]]:
    """For each direct `Value` subclass that defines its own `_trusted`,
    the annotated fields (its ``==`` and ``hash`` read them all) that the
    `_trusted` never sets by `_set(self, "field", ...)` or
    `object.__setattr__(self, "field", ...)`."""
    unset = {}
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and any(ast.unparse(b) == "Value" for b in cls.bases)):
            continue
        fields = [n.target.id for n in cls.body
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "_trusted":
                set_ = {call.args[1].value for call in ast.walk(fn) if isinstance(call, ast.Call)
                        and ast.unparse(call.func) in ("_set", "object.__setattr__")
                        and len(call.args) == 3 and ast.unparse(call.args[0]) == "self"
                        and isinstance(call.args[1], ast.Constant)}
                unset[cls.name] = [f for f in fields if f not in set_]
    return unset


def test_every_own_trusted_constructor_sets_every_field():
    found = {}
    for path in SRC.glob("*.py"):
        found.update(trusted_constructors(ast.parse(path.read_text(), path.name)))
    assert found == {"Word": [], "PeriodicSeq": [], "EPSeq": []}


def test_a_field_a_trusted_constructor_skips_is_found():
    tree = ast.parse("class Seq(Value):\n    period: Word\n    anomaly: Word\n    _memo = None\n\n"
                     "    @classmethod\n    def _trusted(cls, period, anomaly, *, _memo=None):\n"
                     "        self = _new(cls)\n        _set(self, 'period', period)\n"
                     "        _set(self, '_memo', _memo)\n        _set(other, 'anomaly', anomaly)\n"
                     "        return self\n\n"
                     "class Pair(Value):\n    a: int\n    b: int\n\n"
                     "    @classmethod\n    def _trusted(cls, a, b):\n        self = _new(cls)\n"
                     "        object.__setattr__(self, 'a', a)\n        _set(self, 'b', b)\n"
                     "        return self\n\n"
                     "class Plain:\n    x: int\n\n    def _trusted(cls):\n        return None\n\n"
                     "class Generic(Value):\n    y: int\n")
    assert trusted_constructors(tree) == {"Seq": ["anomaly"], "Pair": []}


def unnamed_fixtures(fixtures: list[str], modules: list[str]) -> list[str]:
    """The fixture file names that no test module's text holds in quotes."""
    return [name for name in fixtures
            if not any(f'"{name}"' in text or f"'{name}'" in text for text in modules)]


def test_every_fixture_is_named_by_a_test_module():
    tests = ROOT / "tests"
    modules = [p.read_text() for p in tests.glob("*.py")]
    assert unnamed_fixtures(sorted(p.name for p in (tests / "data").glob("*.json")), modules) == []


def test_an_unnamed_fixture_is_found():
    modules = ['load("flow_b.json")\n', "open('c.json')  # a.json, 'flow_a.json.bak': no name\n"]
    fixtures = ["a.json", "b.json", "c.json", "flow_b.json"]
    assert unnamed_fixtures(fixtures, modules) == ["a.json", "b.json"]


def miscounted_criteria(tree: ast.Module) -> list[str]:
    """The module-level `check_*` functions that `_suite` does not call
    exactly once, with their call counts.  A call of another module-level
    function counts the calls in its body as `_suite`'s own."""
    defs = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}

    def called(fn: ast.FunctionDef) -> list[str]:
        names = [node.func.id for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        return [found for name in names if name in defs
                for found in ([name] if name.startswith("check_") else called(defs[name]))]

    calls = called(defs["_suite"])
    return [f"{name} (called {calls.count(name)} times)" for name in defs
            if name.startswith("check_") and calls.count(name) != 1]


# `_suite` is the one list of verify's criteria
def test_the_suite_calls_every_criterion_once():
    assert miscounted_criteria(ast.parse((SRC / "verify.py").read_text(), "verify.py")) == []


def test_a_criterion_the_suite_misses_is_found():
    tree = ast.parse("def check_a():\n    pass\n\ndef check_b():\n    pass\n\n"
                     "def check_c():\n    pass\n\ndef _pair():\n    return [check_b(), check_b()]\n\n"
                     "def _suite():\n    return [check_a(), *_pair(), len([])]\n")
    assert miscounted_criteria(tree) == ["check_b (called 2 times)", "check_c (called 0 times)"]


def tuple_symbols(tree: ast.Module) -> list[str]:
    """The `Word._trusted` calls whose symbols argument, the first, is a
    `tuple(...)` call, with their line numbers.  A word over at most 256
    symbols holds bytes, and bytes never equal a tuple, so such a call
    builds a word equal to no other; `words.packed` gives the right kind."""
    found = sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "_trusted" and isinstance(node.func.value, ast.Name)
                   and node.func.value.id == "Word" and node.args
                   and isinstance(node.args[0], ast.Call)
                   and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "tuple")
    return [f"{text} (line {line})" for line, text in found]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_word_is_trusted_with_a_tuple_call(module):
    assert tuple_symbols(ast.parse((SRC / module).read_text(), module)) == []


def test_a_word_trusted_with_a_tuple_call_is_found():
    tree = ast.parse("a = Word._trusted(tuple(range(3)), big)\n"
                     "b = Word._trusted(packed(range(3), big), big)\n"
                     "c = Word(tuple(ids), big)\nd = EPSeq._trusted(tuple(w), v)\n"
                     "e = Word._trusted(syms, big)\n"
                     "f = [Word._trusted(tuple(s for s in w), a) for w in ws]\n")
    assert tuple_symbols(tree) == ["Word._trusted(tuple(range(3)), big) (line 1)",
                                   "Word._trusted(tuple((s for s in w)), a) (line 6)"]


def environment_reads(tree: ast.Module) -> list[str]:
    """The reads of the environment, with their line numbers, but for
    `environ[...]`, `environ.get(...)` and `getenv(...)` of the constant
    name SUBSHIFT_SEED, `epshift verify`'s seed: the library takes every
    other setting as an argument.  Any other use of `environ` or `getenv`
    (another name, a name held in a variable, a copy) counts as a read."""
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for env in ast.walk(tree):
        name = env.attr if isinstance(env, ast.Attribute) else getattr(env, "id", None)
        if name not in ("environ", "environb", "getenv", "getenvb"):
            continue
        read, key, parent = env, None, parents.get(id(env))
        if isinstance(parent, ast.Attribute) and parent.attr == "get":
            read, parent = parent, parents.get(id(parent))
        if isinstance(parent, ast.Subscript) and parent.value is env:
            read, key = parent, parent.slice
        elif isinstance(parent, ast.Call) and parent.func is read:
            read, key = parent, (parent.args or [None])[0]
        if not (isinstance(key, ast.Constant) and key.value == "SUBSHIFT_SEED"):
            found.append((read.lineno, read.col_offset, ast.unparse(read)))
    return [f"{text} (line {line})" for line, _, text in sorted(found)]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_environment_variable_is_read_but_the_seed(module):
    assert environment_reads(ast.parse((SRC / module).read_text(), module)) == []


def test_an_environment_read_is_found():
    tree = ast.parse("import os\nfrom os import environ, getenv\n\n"
                     "a = os.environ.get('SUBSHIFT_SEED', '0') + os.environ['SUBSHIFT_SEED']\n"
                     "b = os.getenv('SUBSHIFT_SEED') or environ.get('SUBSHIFT_SEED')\n"
                     "c = os.environ.get('EPSHIFT_FAST') or getenv('EPSHIFT_FAST', '1')\n"
                     "d = environ[name], os.getenv(key=name), dict(os.environ)\n"
                     "e = os.environ.get, os.environb[b'SUBSHIFT_SEED'], os.environ.copy()\n")
    assert environment_reads(tree) == [
        "os.environ.get('EPSHIFT_FAST') (line 6)", "getenv('EPSHIFT_FAST', '1') (line 6)",
        "environ[name] (line 7)", "os.getenv(key=name) (line 7)", "os.environ (line 7)",
        "os.environ.get (line 8)", "os.environb[b'SUBSHIFT_SEED'] (line 8)", "os.environ (line 8)"]


CODE_GENERATORS = ("exec", "eval", "compile")


def code_generation(tree: ast.Module) -> list[str]:
    """The reads of `exec`, `eval` and `compile`, bare or off `builtins`,
    with their line numbers; `re.compile` and other methods of those names
    count for nothing.  Code generated at import is compiled anew by every
    command on a host that writes no bytecode, so each command pays for it:
    the library's code is written out, as `Word._trusted` is."""
    found = sorted((node.lineno, node.col_offset, ast.unparse(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id in CODE_GENERATORS
                   or isinstance(node, ast.Attribute) and node.attr in CODE_GENERATORS
                   and isinstance(node.value, ast.Name) and node.value.id == "builtins")
    return [f"{text} (line {line})" for line, _, text in found]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_code_is_generated(module):
    assert code_generation(ast.parse((SRC / module).read_text(), module)) == []


def test_generated_code_is_found():
    tree = ast.parse("import builtins, re\n\nexec(f'def f(): return {x}', ns)\n"
                     "run = eval\npattern = re.compile('[01]+')\n"
                     "code = builtins.compile(text, 'gen', 'exec')\nx.evaluate(), x.exec_count\n")
    assert code_generation(tree) == ["exec (line 3)", "eval (line 4)",
                                     "builtins.compile (line 6)"]
