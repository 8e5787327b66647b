"""ROADMAP aim 3: the depth of an input costs no Python frames, so no
function of pnlab calls itself.  Each module is parsed, and a call by name
from a function's body (a nested function's included) to the function
itself fails: `f(...)` in a function f, and `self.m(...)`, `cls.m(...)`
or `C.m(...)` in a method m of class C."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pnlab"


def self_calls(tree: ast.Module):
    """(line, name) of each call of a function to itself by name."""
    owners = {}  # a method's node -> the name of its class
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owners.update((n, node.name) for n in node.body)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(node)
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if owner is None:
                hit = isinstance(f, ast.Name) and f.id == node.name
            else:
                hit = (isinstance(f, ast.Attribute) and f.attr == node.name
                       and isinstance(f.value, ast.Name)
                       and f.value.id in ("self", "cls", owner))
            if hit:
                found.append((call.lineno, node.name))
    return found


def test_no_function_calls_itself():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [f"{m.name}:{line} {name}" for m in modules
             for line, name in self_calls(ast.parse(m.read_text(), str(m)))]
    assert found == []


def test_the_scan_finds_self_calls():
    text = """
def f(n):
    return f(n - 1)

def g():
    def h(x):
        return h(x)
    return h

class C:
    def m(self):
        return self.m()

    def k(self, other):
        return other.k() + C.k(self)

    def n(self):
        return n(self)
"""
    assert sorted(self_calls(ast.parse(text))) == [
        (3, "f"), (7, "h"), (12, "m"), (15, "k")]
