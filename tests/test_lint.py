"""Every parameter of the package is read, and every public name has a caller.

Parses each function and lambda in ``src/pnhier`` (nothing is executed):
every parameter must be loaded somewhere in its body, nested functions
included.  A parameter nothing reads is an option no code honours, or an
argument the callee could derive from its other inputs.  The only
exceptions are the interface parameters below, which a signature shared
with other callables fixes.

Every public module-level function, class and constant of the package must
be referenced (a name loaded, an attribute read or a name imported) in
``src``, ``demos`` or ``bench`` outside its own definition: a public name
that only the tests use is code the program does not run.  The one
exception is a name the acceptance gate imports.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pnhier"
PROGRAM = ("src", "demos", "bench")

# (module, qualified name, parameter): read by other callables of the same
# interface, not by this one
INTERFACE = {
    # the integrators call rhs(t, x); the catalog flows are autonomous
    ("dynamics", "hamiltonian_flow_rhs.rhs", "t"),
    # _run calls control(t, h, err, accepted); rk4's fixed steps need only
    # the count, rkf45's error control everything but it
    ("dynamics", "rk4.<lambda>", "t"),
    ("dynamics", "rk4.<lambda>", "h"),
    ("dynamics", "rk4.<lambda>", "err"),
    ("dynamics", "rkf45.control", "accepted"),
}


def _unread(node, prefix, module):
    """(module, qualified name, parameter) of every unread parameter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = child.body if isinstance(child.body, list) else [child.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((module, name, p) for p in params if p not in loaded)
            yield from _unread(child, name + ".", module)
        elif isinstance(child, ast.ClassDef):
            yield from _unread(child, prefix + child.name + ".", module)
        else:
            yield from _unread(child, prefix, module)


def test_every_parameter_is_read():
    unread = {entry for path in sorted(PACKAGE.glob("*.py"))
              for entry in _unread(ast.parse(path.read_text()), "", path.stem)}
    assert sorted(unread - INTERFACE) == []
    # an exception whose parameter is gone or read again leaves the list
    assert sorted(INTERFACE - unread) == []


# (module, name): public names with no caller in the program
UNCALLED = {
    # the acceptance gate (tests/test_acceptance.py) imports it
    ("fields", "schouten_bf"),
}


def _public(tree):
    """(name, defining node) of every public module-level function, class
    and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _referenced(node):
    """Every name loaded, attribute read and name imported under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def test_every_public_name_has_a_program_caller():
    program = Counter(name for folder in PROGRAM
                      for path in sorted((ROOT / folder).rglob("*.py"))
                      for name in _referenced(ast.parse(path.read_text())))
    uncalled = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _public(ast.parse(path.read_text())):
            # a reference inside the definition itself (recursion) is no caller
            if program[name] == Counter(_referenced(node))[name]:
                uncalled.add((path.stem, name))
    assert sorted(uncalled - UNCALLED) == []
    # an exception that gains a caller, or is gone, leaves the list
    assert sorted(UNCALLED - uncalled) == []
