"""Dead-definition guard: every definition in ``src/repro`` is referenced.

Walks the AST of every module under ``src/repro`` and collects each
non-dunder function, class, method and property.  A definition fails the
guard when its name has no whole-word occurrence anywhere in the ``.py``
files of ``src/ tests/ scripts/ benchmarks/ examples/ perfbench/`` other
than on its own ``def``/``class`` line.  The check is textual on purpose:
a name mentioned in a test, a docstring or a string-based dispatch table
counts as a reference, so the guard only fires on code nothing can reach.

An entry in :data:`ALLOWLIST` (``"module:qualified.name"``) exempts one
definition; keep it empty unless a definition is genuinely reached by name
from outside Python (there is no such case today).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
SEARCH_DIRS = ("src", "tests", "scripts", "benchmarks", "examples", "perfbench")

ALLOWLIST: frozenset = frozenset()

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _python_files():
    for directory in SEARCH_DIRS:
        root = REPO_ROOT / directory
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))


def _definitions(path: Path):
    """Yield ``(qualified_name, name, lineno)`` for each definition in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEF_NODES):
                qualified = f"{prefix}{child.name}"
                yield qualified, child.name, child.lineno
                yield from walk(child, f"{qualified}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def find_unreferenced_definitions():
    totals = Counter()
    for path in _python_files():
        totals.update(_WORD.findall(path.read_text(encoding="utf-8")))

    unreferenced = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
        lines = path.read_text(encoding="utf-8").splitlines()
        for qualified, name, lineno in _definitions(path):
            if _is_dunder(name) or f"{module}:{qualified}" in ALLOWLIST:
                continue
            own_line = _WORD.findall(lines[lineno - 1]).count(name)
            if totals[name] == own_line:
                unreferenced.append(f"{module}:{qualified} (line {lineno})")
    return unreferenced


def test_every_definition_is_referenced():
    unreferenced = find_unreferenced_definitions()
    assert not unreferenced, (
        "definitions in src/repro that nothing references (delete them, or "
        "allowlist one with a reason):\n  " + "\n  ".join(unreferenced)
    )

