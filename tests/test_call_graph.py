"""No function in ``src/tqsim`` calls itself, directly or through others.

Deep decision trees and nested documents must not meet Python's recursion
limit, so the tree builder and the document walkers loop on explicit stacks.
The call graph is read from the source by name: a call ``f(...)`` or
``x.f(...)`` is an edge to every function or method named ``f``.  That can
only add edges between functions; a call through a variable (a table entry,
a callback) is not seen.
"""
import ast
from pathlib import Path

import tqsim

SOURCE = Path(tqsim.__file__).parent


def call_graph() -> dict[str, set[str]]:
    """Each function name in the package, mapped to the names it calls."""
    calls: dict[str, set[str]] = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = calls.setdefault(node.name, set())
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                        called.add(call.func.id)
                    elif isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                        called.add(call.func.attr)
    return {name: called & calls.keys() for name, called in calls.items()}


def cycles(graph: dict[str, set[str]]) -> list[str]:
    """The names from which a chain of calls leads back to themselves."""
    found = []
    for start, callees in graph.items():
        seen, stack = set(), list(callees)
        while stack:
            name = stack.pop()
            if name == start:
                found.append(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(graph[name])
    return sorted(found)


def test_no_function_in_the_package_recurses():
    graph = call_graph()
    assert len(graph) > 90  # the walk found the package's functions
    assert cycles(graph) == []


def test_the_check_sees_direct_and_indirect_recursion():
    tree = {"walk": {"walk"}, "even": {"odd"}, "odd": {"even"}, "leaf": set(), "root": {"leaf", "odd"}}
    assert cycles(tree) == ["even", "odd", "walk"]
