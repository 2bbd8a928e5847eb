"""What importing the package costs, and what each of its modules imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import loeschian

PACKAGE = Path(loeschian.__file__).parent


def test_import_leaves_the_process_pool_out():
    # Only a parallel conjecture sweep uses a pool, so no other command should
    # pay for importing concurrent.futures.process.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, loeschian.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_import_leaves_dataclasses_and_inspect_out():
    # The records are NamedTuples, so importing the package does not load
    # dataclasses, nor inspect, ast, dis and tokenize along with it.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, loeschian; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_modules_use_every_name_they_import():
    # __init__.py imports names only to re-export them.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def test_private_functions_have_a_caller():
    # The package has no linter, so a private helper whose last caller left
    # would otherwise stay behind unnoticed.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    private = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    assert private <= used, f"no caller in the package for {sorted(private - used)}"
