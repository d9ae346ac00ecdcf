"""Rules on the source tree itself: ``src/`` reports through return
values, exceptions and ``logging``, never ``print``."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_print_calls_in_src():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert not found, f"print() calls in src/: {found}"
