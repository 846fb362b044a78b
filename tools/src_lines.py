"""Line counts of each module under src/: total, code, docstring, comment
and blank lines.

    python3 tools/src_lines.py [SRC_DIR]

Docstring lines are the lines spanned by the docstrings of modules,
classes and functions, found with ``ast``.  Comment lines are the other
lines whose first non-blank character is ``#``.  Code lines are the rest
of the non-blank lines.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import sys

COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: str) -> dict[str, int]:
    """The COLUMNS counts of one source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = docstring_lines(ast.parse(text, filename=path))
    out = dict.fromkeys(COLUMNS, 0)
    for lineno, line in enumerate(text.splitlines(), start=1):
        out["total"] += 1
        stripped = line.strip()
        if lineno in docs:
            out["docstring"] += 1
        elif not stripped:
            out["blank"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main(argv: list[str]) -> int:
    src = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..", "src")
    paths = sorted(os.path.join(root, name)
                   for root, _, names in os.walk(src)
                   for name in names if name.endswith(".py"))
    rows = [(os.path.relpath(p, src), count(p)) for p in paths]
    total = {c: sum(r[c] for _, r in rows) for c in COLUMNS}
    width = max(len(name) for name, _ in rows + [("total", None)])
    print(f"{'module':<{width}}  " + "  ".join(f"{c:>9}" for c in COLUMNS))
    for name, r in rows + [("total", total)]:
        print(f"{name:<{width}}  " + "  ".join(f"{r[c]:>9}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
