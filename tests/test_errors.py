"""Every error type the package declares is raised somewhere in it.

An exception class that no code raises documents a failure the program
cannot report; this keeps such types from shipping.
"""

import ast
import inspect
from pathlib import Path

from ztwo import errors

SRC = Path(errors.__file__).resolve().parent


def raised_names():
    """Names of the classes raised as `raise Name(...)` or `raise Name`."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_subclass_is_raised():
    declared = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.ZtwoError) and cls is not errors.ZtwoError}
    assert declared, "no ZtwoError subclasses found"
    assert declared - raised_names() == set()
