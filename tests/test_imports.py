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


def _refs(module, name, function):
    """How often module refers to name: in the whole module, and in its top-level function."""
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def refs(root):
        return sum(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id == name for node in ast.walk(root))

    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    return refs(tree), refs(body)


def test_represent_runs_pow_only_in_the_cube_root_search():
    # _cube_root is the one search for a cube root of unity; a pow call
    # anywhere else in represent.py would be a second copy of it.
    assert _refs("represent", "pow", "_cube_root") == (1, 1)


def test_factorize_builds_a_shape_only_in_shape():
    # _shape turns one factor stream into one shape; a second
    # _general_form_from call would build the shape of n twice.
    assert _refs("factorize", "_general_form_from", "_shape") == (1, 1)


def test_represent_starts_from_a_shape():
    # How far n is factored is decided in factorize.py alone: represent.py takes
    # the shape from _shape, and only factorize.py names the rule that a
    # cofactor below 1009^2 is 1 or a prime.
    tree = ast.parse((PACKAGE / "represent.py").read_text())
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "factorize"
             for alias in node.names}
    assert taken == {"RHO_SEED", "GeneralForm", "_shape", "is_prime"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "factorize.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            names = {node.id if isinstance(node, ast.Name) else node.name
                     for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.alias))}
            assert "_TRIAL_COVERED" not in names, path.name


def test_represent_builds_every_pair_with_one_step():
    # _times, in forms.py, is the one product-and-fold in Z[w]: compose, the witness
    # walk and the sets of every representation all take it, and represent.py
    # names no compose.
    assert _refs("forms", "_times", "compose")[1] == 1
    assert _refs("represent", "compose", "_reps") == (0, 0)
    uses, in_witness = _refs("represent", "_times", "_witness")
    in_reps = _refs("represent", "_times", "_reps")[1]
    assert in_witness > 0 and in_reps > 0 and uses == in_witness + in_reps


def test_split_pairs_are_built_by_the_construction():
    # The table is _prime_rep run at import over the split primes below 1000,
    # not literal pairs; the two walks read it, and represent_prime does not, so
    # prime-rep, root and the prime sweep still check the construction itself.
    tree = ast.parse((PACKAGE / "represent.py").read_text())
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_SPLIT_PAIRS" for t in node.targets)]
    assert isinstance(table, ast.DictComp)
    assert isinstance(table.value, ast.Call) and table.value.func.id == "_prime_rep"
    uses, in_witness = _refs("represent", "_SPLIT_PAIRS", "_witness")
    in_reps = _refs("represent", "_SPLIT_PAIRS", "_reps")[1]
    assert in_witness == in_reps == 1 and uses == 2
    assert _refs("represent", "_SPLIT_PAIRS", "represent_prime")[1] == 0
    assert _refs("represent", "_SPLIT_PAIRS", "cube_root_unity")[1] == 0
