"""Every parameter of the package is read.

Parses each function and lambda in ``src/pnhier`` (nothing is executed):
every parameter must be loaded somewhere in its body, nested functions
included.  A parameter nothing reads is an option no code honours, or an
argument the callee could derive from its other inputs.  The only
exceptions are the interface parameters below, which a signature shared
with other callables fixes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pnhier"

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
