"""Source hygiene: no module under src/permlie imports a name it never
uses, and none defines a name that nothing uses.

Unused imports: `__init__.py` is exempt, since re-exporting is its job.
Every imported binding must appear as a name (or the root of an attribute
chain) somewhere else in the module.

Dead names: every module-level function, class and assigned name of
src/permlie/*.py, dunders aside, must occur as a code token (not in a string
or comment) somewhere besides its definition, in src/permlie or tests/.
A re-export from `__init__.py` counts as a use.

Dead members: every method, property and annotated field of a class in
src/permlie, dunders aside, must be read as an attribute (`x.name`) or
passed as a keyword (`f(name=...)`) somewhere in src/permlie or tests/.
Members that a library calls by name are allow-listed.

Reached from main: every module-level function and class, and every
method, of src/permlie/*.py is reached by a chain of uses from cli.main,
the allow-listed library hooks, or code that runs on import.  Only
src/permlie counts (a test's use does not keep a name alive), and
`__init__.py` is left out, since a re-export is not a use.  Helpers only
tests need live in tests/reference.py.

Entered by a verb: the reach walk matches members by name, so a dead method
that shares its name with a live one on another class passes it.  Every
function and method of src/permlie, dunders aside, must also be entered
when each verb runs once at small n under sys.setprofile; the broken-pipe
path alone is exempt.

Standard library only: every import in src/permlie/*.py is relative or
names a module of the standard library (sys.stdlib_module_names), so the
package has no runtime dependency.  This file itself uses the standard
library and pytest only.

No dataclasses: no src/permlie/*.py imports the dataclasses module.  Its
import and its class set-up took more time than the rest of
`import permlie.cli`, which every verb pays; records are NamedTuples or
__slots__ classes instead.

Python floor: every src/permlie/*.py parses with the grammar of the oldest
Python that pyproject.toml's requires-python admits, so syntax newer than
the declared floor (such as `except*` under ">=3.10") is caught on a newer
interpreter.
"""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from permlie.verify import SELECTORS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "permlie"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\nx: List = []\n") == [
        "line 1: os",
        "line 2: Any",
    ]


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import, nested ones too."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        out += [(node.lineno, root) for root in roots]
    return out


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is not in the standard library."""
    return [f"line {line}: {root}" for line, root in absolute_imports(source)
            if root not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_standard_library_only(path):
    assert foreign_imports(path.read_text()) == []


def test_detector_flags_a_foreign_import():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from . import schur\n"
        "from .linalg import SparseEchelon\n"
        "from scipy.linalg import qr\n"
        "import xml.dom\n"
    )
    assert foreign_imports(source) == ["line 2: numpy", "line 5: scipy"]


def dataclasses_imports(source: str) -> list[int]:
    """Lines that import the dataclasses module."""
    return [line for line, root in absolute_imports(source) if root == "dataclasses"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclasses_imports(path.read_text()) == []


def test_detector_flags_a_dataclasses_import():
    source = (
        "from __future__ import annotations\n"
        "import os, dataclasses as dc\n"
        "from . import dataclasses\n"
        "from .dataclasses import field\n"
        "def f():\n"
        "    from dataclasses import field\n"
    )
    assert dataclasses_imports(source) == [2, 6]


def python_floor() -> tuple[int, int]:
    """The (major, minor) floor declared by requires-python."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def newer_syntax(source: str, floor: tuple[int, int]) -> str | None:
    """The first syntax error under the grammar of Python `floor`, if any."""
    try:
        ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_at_the_declared_python_floor(path):
    assert newer_syntax(path.read_text(), python_floor()) is None


def test_detector_flags_syntax_above_the_floor():
    assert python_floor() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert "Exception groups" in newer_syntax(source, (3, 10))
    assert newer_syntax(source, (3, 11)) is None


def defined_names(source: str) -> list[str]:
    """Module-level functions, classes and assigned names, dunders aside."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def code_names(source: str) -> Counter:
    """How often each identifier occurs as a code token."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def dead_names(module_source: str, corpus: Counter) -> list[str]:
    """Names a module defines whose only tokens in `corpus` (which includes
    the module itself) are their definitions."""
    defined = Counter(defined_names(module_source))
    return sorted(name for name, count in defined.items() if corpus[name] <= count)


@pytest.fixture(scope="module")
def corpus():
    total = Counter()
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        total += code_names(path.read_text())
    return total


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_names(path, corpus):
    assert dead_names(path.read_text(), corpus) == []


def test_detector_flags_a_dead_name():
    source = (
        "import os\n"
        "LIVE = 1\n"
        "DEAD: int = 2  # LIVE DEAD\n"
        "__all__ = ['DEAD']\n"
        "def used():\n"
        "    return LIVE\n"
        "def unused():\n"
        "    return used()\n"
        "class Gone:\n"
        "    pass\n"
    )
    assert dead_names(source, code_names(source)) == ["DEAD", "Gone", "unused"]


# Members called by a library rather than by permlie code.
CALLED_BY_LIBRARY = {"_Parser.error"}  # argparse's error hook


def class_members(source: str) -> list[str]:
    """'Class.member' for each method, property and annotated field of every
    class, dunders aside."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                out.append(f"{node.name}.{name}")
    return out


def member_uses(source: str | ast.AST) -> set[str]:
    """Names read as attributes, or passed as keyword arguments, in source."""
    tree = ast.parse(source) if isinstance(source, str) else source
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            uses.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            uses.add(node.arg)
    return uses


def dead_members(module_source: str, uses: set[str]) -> list[str]:
    return sorted(
        m for m in class_members(module_source)
        if m.split(".")[1] not in uses and m not in CALLED_BY_LIBRARY
    )


@pytest.fixture(scope="module")
def uses():
    total = set()
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        total |= member_uses(path.read_text())
    return total


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_members(path, uses):
    assert dead_members(path.read_text(), uses) == []


def test_detector_flags_a_dead_member():
    source = (
        "class Run:\n"
        "    dim: int\n"
        "    steps: int\n"
        "    size = 3\n"
        "    def __len__(self):\n"
        "        return self.dim\n"
        "    @property\n"
        "    def live(self):\n"
        "        return self.dim\n"
        "    def gone(self):\n"
        "        self.steps = 0\n"
        "        return 'steps'\n"
        "def f(run):\n"
        "    return Run(steps=run.live)\n"
        "class _Parser:\n"
        "    def error(self, message):\n"
        "        pass\n"
    )
    assert dead_members(source, member_uses(source)) == ["Run.gone"]


def names_read(node: ast.AST) -> set[str]:
    """Names a node reads: Name loads, attribute reads and keywords."""
    loads = {sub.id for sub in ast.walk(node)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    return loads | member_uses(node)


def unreached_names(sources: dict[str, str], root: str = "cli.main") -> list[str]:
    """Functions, classes and methods that no chain of uses reaches from
    root, the members in CALLED_BY_LIBRARY, or module-level code that runs
    on import.  sources maps module name to source.  A module-level def is
    reported as 'module.name', a method as 'Class.name'.

    A def is live once a live body names it; its own body is then followed.
    A live class brings its dunders and the rest of its class body along;
    a module-level assignment is followed once its name is used.  The walk
    matches by name alone, across modules, so it over-approximates: a dead
    def that shares its name with a live use is kept.
    """
    defs: dict[str, list] = {}  # name -> [(label or None, nodes it runs)]
    pending: list = []  # nodes known to run
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", [node]))
            elif isinstance(node, ast.ClassDef):
                body = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        label = f"{node.name}.{item.name}"
                        defs.setdefault(item.name, []).append((label, [item]))
                    else:  # dunders and class-level statements come with the class
                        body.append(item)
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", body))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and node.value is not None:
                        defs.setdefault(target.id, []).append((None, [node.value]))
            else:
                pending.append(node)
    roots = {root} | CALLED_BY_LIBRARY
    reached = set()
    for entries in defs.values():
        for label, nodes in entries:
            if label in roots:
                reached.add(label)
                pending += nodes
    seen = set()
    while pending:
        for name in names_read(pending.pop()) - seen:
            seen.add(name)
            for label, nodes in defs.get(name, ()):
                reached.add(label)
                pending += nodes
    return sorted(label for entries in defs.values() for label, _ in entries
                  if label is not None and label not in reached)


def test_every_name_is_reached_from_main():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreached_names(sources) == []


def test_detector_flags_an_unreached_name():
    sources = {
        "cli": (
            "import sys\n"
            "from .core import Box, f\n"
            "LIMIT = g_const()\n"
            "def main():\n"
            "    return f(Box(1).get(), _Parser)\n"
            "class _Parser:\n"
            "    def error(self, message):\n"
            "        return aid()\n"
            "if __name__ == '__main__':\n"
            "    sys.exit(main())\n"
        ),
        "core": (
            "def f(x):\n"
            "    return x\n"
            "def h():\n"
            "    return 1\n"
            "def k():\n"
            "    return h()\n"
            "def aid():\n"
            "    return 0\n"
            "def g_const():\n"
            "    return 2\n"
            "class Box:\n"
            "    size = width()\n"
            "    def __init__(self, v):\n"
            "        self.v = v\n"
            "    def __repr__(self):\n"
            "        return shown(self.v)\n"
            "    def get(self):\n"
            "        return self.v\n"
            "    def gone(self):\n"
            "        return self.get()\n"
            "def width():\n"
            "    return 3\n"
            "def shown(v):\n"
            "    return str(v)\n"
        ),
    }
    assert unreached_names(sources) == ["Box.gone", "core.g_const", "core.h", "core.k"]


# One run of each verb at small n, and a bad usage, which enters
# _Parser.error.  Together they must enter every function of src/permlie.
TRACED_ARGVS = (
    ("close", "--n", "3", "--gens", "G2"),
    ("close", "--n", "3", "--gens", "1,0,0; 0,2,0", "--method", "dense"),
    *(("verify", name, "--n", str(max(lo, 3))) for name, (lo, _, _) in SELECTORS.items()),
    ("verify", "thm1", "--n", "2", "--csv", os.devnull),
    ("center", "--n", "4", "--emit", "C"),
    ("center", "--n", "4", "--emit", "L", "--mu", "1"),
    ("schur", "--n", "4", "--check-blocks"),
    ("table", "--n", "2"),
    ("table", "--n", "2", "--compare"),
    ("close",),
)

# Functions that only a fault of the environment enters.
UNTRACED = {"cli._stdout_to_devnull"}  # a reader that closed stdout early

TRACE_SCRIPT = """
import contextlib, io, json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from permlie.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        main(argv)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def defined_functions(path: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> label of every def in a module, nested ones
    too, dunders aside: 'module.name' at module level, else 'Outer.name'.
    The first line is that of the code object, the first decorator's."""
    out = {}

    def walk(node, owner):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    line = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out[(str(path), line)] = f"{owner}.{item.name}"
                walk(item, item.name)
            elif isinstance(item, ast.ClassDef):
                walk(item, item.name)
            else:
                walk(item, owner)

    walk(ast.parse(path.read_text()), path.stem)
    return out


def test_every_function_is_entered_by_a_verb():
    """In a fresh interpreter, so that no cache is warm and hides a call."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", TRACE_SCRIPT, json.dumps(TRACED_ARGVS)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    entered = {(f, line) for f, line in json.loads(proc.stdout)}
    defined = {}
    for path in SOURCES:
        defined.update(defined_functions(path.resolve()))
    missed = [label for key, label in defined.items() if key not in entered]
    assert sorted(set(missed) - UNTRACED) == []


def test_function_labels_and_first_lines(tmp_path):
    path = tmp_path / "core.py"
    path.write_text(
        "def f():\n"
        "    def g():\n"
        "        pass\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    key = str(path)
    assert defined_functions(path) == {(key, 1): "core.f", (key, 2): "f.g", (key, 5): "Box.size"}
