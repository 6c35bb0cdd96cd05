"""Every name that a Python file in `src/`, `tests/` or `scripts/` imports is
read in that file.

The test walks each file's syntax tree. A name counts as read where it is
loaded (`x`, `x.attr`, `x(...)`, an annotation) anywhere in the file, or
where the file lists it in `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """`line: name` for each imported name that the module never reads."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda e: e[1]) if name not in read]


def test_no_file_imports_a_name_it_never_reads():
    files = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    unused = {}
    for path in files:
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if found:
            unused[str(path.relative_to(ROOT))] = found
    assert unused == {}
