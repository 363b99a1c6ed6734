"""Every module of ``src/chargechain`` uses each name it imports.

No linter is assumed, so the check reads the modules with ``ast``: a name
bound by an import must appear as a name somewhere in the module, its
annotations included.  ``from __future__`` imports are exempt, and so is
the package's ``__init__``, whose imports are its re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chargechain"


def unused_imports(source: str) -> list[str]:
    """The names an import in ``source`` binds and the module never reads, each with its line."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in bound if name not in used]
    return unused


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_import(path: Path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import DomainError, ValidationError\n"
        "def f(x: DomainError) -> None:\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "ValidationError (line 4)"]
