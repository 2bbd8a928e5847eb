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
    # The package has no linter, so a private helper or constant whose last
    # user left would otherwise stay behind unnoticed. Only loads count as
    # uses: the target of an assignment is an ast.Name too.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert private <= used, f"no caller in the package for {sorted(private - used)}"


def test_only_forms_words_the_64_bit_input_contract():
    # forms._require_u64 and forms._require_positive_u64 hold the two range
    # error texts; every other module calls them rather than spelling a copy.
    templates = ("is outside the supported unsigned 64-bit range",
                 "must be a positive 64-bit integer")
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "forms.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        spelled = {
            text
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for text in templates
            if text in node.value
        }
        assert not spelled, f"{path.name} spells {sorted(spelled)} itself"


def test_represent_runs_pow_only_in_the_cube_root_search():
    # _cube_root is the one search for a cube root of unity; a pow call
    # anywhere else in represent.py would be a second copy of it.
    path = PACKAGE / "represent.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def pow_calls(root):
        return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "pow" for node in ast.walk(root))

    [cube_root] = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_cube_root"]
    assert pow_calls(tree) == pow_calls(cube_root) == 1
