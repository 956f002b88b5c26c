import ast
import inspect
from pathlib import Path

from stockcast import errors

SRC = Path(errors.__file__).parent


def caught_names() -> set[str]:
    """Every name an `except` clause under the package mentions."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for part in ast.walk(node.type):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        names.add(part.attr)
    return names


def test_each_error_subclass_is_caught_by_name_or_builds_its_own_message():
    # the CLI prints only the message, so a subclass that no code tells
    # apart from StockcastError adds a name and nothing else
    caught = caught_names()
    subclasses = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and cls is not errors.StockcastError
    ]
    assert subclasses
    idle = [c.__name__ for c in subclasses if c.__name__ not in caught and "__init__" not in vars(c)]
    assert idle == []
