"""Import hygiene of the package modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import strata_cones

PACKAGE = Path(strata_cones.__file__).parent

# names imported on purpose without a use: the package's re-exports, and
# the from-import that the benchmark's tracer test follows by this name
EXEMPT = {("weights", "cone_complete")}


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for name in ast.literal_eval(node.value)}


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _exported_names(tree)
        unused += [f"{path.stem}.{name}"
                   for name in sorted(_imported_names(tree) - used)
                   if (path.stem, name) not in EXEMPT]
    assert unused == []


def _referenced_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            } | {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}


def test_every_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set(strata_cones.__all__).union(
        *map(_referenced_names, trees.values()))
    dead = [f"{stem}.{node.name}" for stem, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in referenced]
    assert dead == []


# the exports no package module refers to, each with the reason it stays
UNREFERENCED_EXPORTS = {
    "check_report": "library entry point, see README's Library section",
    "explore": "library entry point, see README's Library section",
    "cone_complete": "the benchmark traces it by name",
}


def test_every_export_has_a_user():
    # `test_every_definition_has_a_caller` counts `__all__` as a caller, so
    # an export is checked here against the other modules alone
    referenced = set().union(*(
        _referenced_names(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"))
    assert set(strata_cones.__all__) - referenced == set(UNREFERENCED_EXPORTS)


# what loading each package module imports: every launch of the command
# pays for all of it, so a new module-level import is a reviewed edit here
MODULE_LEVEL_IMPORTS = {
    "__init__": {"strata_cones.cone_kernel", "strata_cones.verify"},
    "cli": {"functools", "os", "re", "sys", "types", "typing",
            ".cone_kernel", ".splitting", ".verify", ".weights"},
    "cone_kernel": {"functools", "fractions", "itertools", "math",
                    "operator", "typing"},
    "splitting": {"functools", "typing"},
    "verify": {"contextlib", "functools", "json", "typing",
               ".cone_kernel", ".splitting", ".weights"},
    "weights": {"fractions", "typing", ".cone_kernel", ".splitting"},
}


def _module_level_imports(tree: ast.Module) -> set[str]:
    """The modules named by the imports that run when the module loads:
    every import outside a function body, relative ones with their dots."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_imports_are_pinned():
    found = {path.stem: _module_level_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found == MODULE_LEVEL_IMPORTS


def test_the_command_line_loads_no_process_pool():
    # only --jobs above 1 starts a pool, so a fresh interpreter that imports
    # the command line and runs it with one job never loads the machinery
    script = (
        "import os, sys\n"
        "import strata_cones.cli as cli\n"
        "loaded = lambda: [name for name in ('concurrent.futures',\n"
        "                                    'multiprocessing')\n"
        "                  if name in sys.modules]\n"
        "print(loaded())\n"
        "cli.main(['check', '--p', '2', '--cycles', '2', '--json',\n"
        "          '-o', os.devnull])\n"
        "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n"


def test_the_command_line_loads_no_introspection_machinery():
    # every launch of the command pays for what it imports; `dataclasses`
    # would bring `inspect`, `ast`, `dis` and `tokenize` with it, and
    # `argparse` brings `gettext`: the walk reads the command line and
    # writes its help, usage lines and refusals itself
    for argv in (["describe", "--p", "2", "--cycles", "3", "--t", "0.1",
                  "--json"],
                 ["check", "--p", "2", "--cycles", "3", "--t", "0.1",
                  "--json"]):
        script = (
            "import sys\n"
            "import strata_cones.cli as cli\n"
            f"code = cli.main({argv!r})\n"
            "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize',\n"
            "         'argparse', 'gettext')\n"
            "print(code, [name for name in heavy if name in sys.modules],\n"
            "      file=sys.stderr)\n")
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert '"t": "0.1"' in done.stdout, argv
        assert done.stderr == "0 []\n", argv


def test_no_reply_loads_argparse_or_gettext():
    # the walk writes the help, the usage lines and every refusal itself
    argvs = [[], ["bogus"], ["--", "describe"], ["-hx"],
             ["--json", "describe", "--p", "2", "--cycles", "3"],
             ["describe", "--p", "x"], ["describe", "--bogus"], ["-h"],
             *([name, "-h"] for name in ("describe", "check", "explore",
                                         "member", "minimal", "gl2"))]
    script = (
        "import contextlib, io, sys\n"
        "import strata_cones.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, [name for name in ('argparse', 'gettext')\n"
        "              if name in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{[3] * 7 + [0] * 7} []\n"
