"""Every settable value of b4nls is set by the program, or is a named test knob.

A defaulted parameter or dataclass field that no call in `src/b4nls` sets,
by keyword or by position, to anything but its own default literal, has one
value in use: it is a constant, not an option. The walk lists each one that is not in TEST_KNOBS, where each entry
names the test that sets it. Calls are matched by the called name (a bare
name or the last attribute), so a same-named callable elsewhere counts as a
caller, and a class is called by its name for `__init__` and its fields.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "b4nls"

# "module.callable.parameter" -> "file::test" that sets it
TEST_KNOBS = {
    "cli.main.argv": "test_cli.py::test_describe_lists_every_key_the_builder_reads",
    "hum.ControlProblem.u_target": "test_hum.py::test_linear_control_nonzero_target",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(position, name, default) of each defaulted parameter; a method's
    position is counted after self."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    skip = 1 if method else 0
    for i, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults), start=first):
        yield i - skip, arg.arg, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg, default


def knobs(tree: ast.Module, module: str):
    """(knob id, called name, position or None, parameter name, default
    expression) for every defaulted parameter and dataclass field of one
    module."""
    def visit(node, owner):
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                if _is_dataclass(stmt):
                    fields = [
                        s for s in stmt.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    ]
                    for pos, s in enumerate(fields):
                        if s.value is not None:
                            name = s.target.id
                            yield f"{module}.{stmt.name}.{name}", stmt.name, pos, name, s.value
                yield from visit(stmt, stmt)
            elif isinstance(stmt, ast.FunctionDef):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in stmt.decorator_list
                )
                method = owner is not None and not static
                called = owner.name if method and stmt.name == "__init__" else stmt.name
                qual = f"{owner.name}.{stmt.name}" if owner is not None else stmt.name
                for pos, name, default in _defaulted(stmt, method):
                    yield f"{module}.{qual}.{name}", called, pos, name, default
                yield from visit(stmt, None)
    yield from visit(tree, None)


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


_NO_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NO_LITERAL


def _is_default(node, default: ast.expr) -> bool:
    """Whether an argument is a literal equal to the default's, of its type."""
    value, expect = _literal(node), _literal(default)
    return value is not _NO_LITERAL and type(value) is type(expect) and value == expect


def sets(node, called: str, pos: int | None, name: str, default: ast.expr) -> bool:
    """Whether some call under node to `called` passes the parameter, by
    keyword or by position, a value other than its own default literal."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call) or _called_name(call) != called:
            continue
        if any(k.arg is None for k in call.keywords):
            return True
        if any(k.arg == name and not _is_default(k.value, default) for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if pos is not None and len(call.args) > pos and not _is_default(call.args[pos], default):
            return True
    return False


def _src():
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_defaulted_parameter_is_set_by_the_program_or_a_test_knob():
    trees = _src()
    unset = sorted(
        knob
        for module, tree in trees.items()
        for knob, called, pos, name, default in knobs(tree, module)
        if not any(sets(t, called, pos, name, default) for t in trees.values())
    )
    assert [k for k in unset if k not in TEST_KNOBS] == [], (
        "defaulted but never set in src: make it a constant, or list it in TEST_KNOBS"
    )
    assert sorted(set(TEST_KNOBS) - set(unset)) == [], "listed as a test knob but set or gone"


def test_each_test_knob_is_set_by_its_test():
    trees = _src()
    found = {
        knob: (called, pos, name, default)
        for module, tree in trees.items()
        for knob, called, pos, name, default in knobs(tree, module)
    }
    for knob, where in TEST_KNOBS.items():
        file, test = where.split("::")
        tree = ast.parse((TESTS / file).read_text())
        body = [s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == test]
        assert body, f"{where} does not exist"
        assert sets(body[0], *found[knob]), f"{where} does not set {knob}"


def test_an_argument_equal_to_its_default_literal_sets_nothing():
    found = {
        knob: rest
        for knob, *rest in knobs(ast.parse("def f(a, flag=True, n=2):\n    pass\n"), "m")
    }
    assert not sets(ast.parse("f(1, flag=True)\nf(1, True, 2)\nf(1, n=2)"), *found["m.f.flag"])
    assert not sets(ast.parse("f(1, True, 2)\nf(1, n=2)"), *found["m.f.n"])
    assert sets(ast.parse("f(1, flag=False)"), *found["m.f.flag"])
    assert sets(ast.parse("f(1, True, n)"), *found["m.f.n"])
    assert sets(ast.parse("f(1, n=2.0)"), *found["m.f.n"])  # another type is another value
