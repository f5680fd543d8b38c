"""The demos and the README example stay in step with the package.

Every name that a demo script or a README python block imports from pnhier
must exist (checked by parsing, nothing is executed), and so must every
module attribute the README names in backticks.  The README's "Command
line" section and the ``pnhier`` parser must name the same flags, and its
error sentence, ``pnhier.__all__`` and ``pnhier.errors`` the same errors.
The two quick demos must run to a clean exit.
"""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# lattice_flow.py integrates for several seconds; its imports are still checked
QUICK_DEMOS = ("ladder_tour.py", "catalog_checkup.py")


def readme_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def pnhier_imports(source):
    """(module, name) for every ``from pnhier... import name`` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "pnhier"):
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def resolves(module, name):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


SOURCES = ([(p.name, p.read_text()) for p in DEMOS]
           + [(f"README block {i}", block)
              for i, block in enumerate(readme_blocks())])


def test_there_is_something_to_check():
    # an empty glob or a changed fence would pass the checks below vacuously
    assert len(DEMOS) >= 3 and readme_blocks()


@pytest.mark.parametrize("where, source", SOURCES, ids=[s[0] for s in SOURCES])
def test_documented_imports_resolve(where, source):
    names = pnhier_imports(source)
    assert names, f"{where} imports nothing from pnhier"
    missing = [f"{m}.{n}" for m, n in names if not resolves(m, n)]
    assert missing == [], f"{where} imports names pnhier does not have"


MODULES = {p.stem for p in (ROOT / "src" / "pnhier").glob("*.py")} - {"__init__"}


def readme_spans(text):
    """Backticked spans of README text, paths left out."""
    return [s for s in re.findall(r"`([^`\n]+)`", text) if "/" not in s]


def resolves_chain(module, names):
    obj = importlib.import_module(f"pnhier.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_module_table_names_resolve():
    text = (ROOT / "README.md").read_text()
    table = text.split("## What's inside", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `pnhier\.(\w+)` \| (.*) \|$", table, flags=re.M)
    assert len(rows) == 9
    missing = [f"{mod}.{name}" for mod, cells in rows
               for name in readme_spans(cells)
               if re.fullmatch(r"[A-Za-z_]\w*", name) and name != "pnhier"
               and not resolves_chain(mod, [name])]
    assert missing == [], "the README module table names what pnhier lacks"


def test_readme_module_references_resolve():
    text = (ROOT / "README.md").read_text()
    chains = [chain.split(".") for span in readme_spans(text)
              for chain in re.findall(r"\w+(?:\.\w+)+", span)]
    # pnhier.<mod>[.<name>] must name a module; <mod>.<name> is checked
    # where <mod> is one (system.pi0 and np.matmul are not)
    checked = [c[1:] if c[0] == "pnhier" else c for c in chains
               if c[0] == "pnhier" or c[0] in MODULES]
    assert len(checked) >= 10
    missing = [".".join(c) for c in checked
               if c[0] not in MODULES or not resolves_chain(c[0], c[1:])]
    assert missing == [], "the README names module attributes pnhier lacks"


def test_readme_command_line_flags_match_the_parser():
    from pnhier.cli import _build_parser

    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = [action for action in _build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    defined = {flag for action in subparsers
               for sub in action.choices.values()
               for option in sub._actions for flag in option.option_strings
               if flag.startswith("--") and flag != "--help"}
    assert len(defined) >= 10
    assert documented - {"--help"} <= defined, "README names unknown flags"
    assert defined <= documented, "README leaves parser flags out"


def test_error_lists_agree():
    # README's error sentence, the package exports and the errors module
    # must name the same EngineError subclasses
    import pnhier
    from pnhier import errors

    text = (ROOT / "README.md").read_text()
    sentence = text.split("All errors derive from", 1)[1].split("\n\n", 1)[0]
    documented = {s for s in readme_spans(sentence) if "." not in s}

    def engine_errors(namespace, names):
        return {name for name in names
                if isinstance(getattr(namespace, name), type)
                and issubclass(getattr(namespace, name), errors.EngineError)
                and getattr(namespace, name) is not errors.EngineError}

    exported = engine_errors(pnhier, pnhier.__all__)
    defined = engine_errors(errors, dir(errors))
    assert len(defined) == 6
    assert documented == exported == defined


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demos_run_clean(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
