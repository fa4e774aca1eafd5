"""No module of the package, the tests or the demos keeps a module-level
import it never uses.

No linter runs on this repository, and a deletion or a rename easily leaves
a dead import behind. `__init__.py` is left out: its imports are the
package's exports. So is `import *`, which binds no name of its own.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "forensicross"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    p for pattern in ("tests/*.py", "demos/*.py") for p in ROOT.glob(pattern)
)


def _module_id(module: Path) -> str:
    return module.stem if module.parent == PACKAGE else f"{module.parent.name}/{module.stem}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each module-level import binds -> the line it is on."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation names its types inside the string
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_modules_are_found():
    assert MODULES  # an empty glob would parametrize no test at all


@pytest.mark.parametrize("module", MODULES, ids=[_module_id(m) for m in MODULES])
def test_no_unused_module_level_import(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{_module_id(module)} imports names it never uses: {unused}"
