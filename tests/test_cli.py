import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

import loeschian
import loeschian.cli as cli_mod
from loeschian import (U64_MAX, count_formula, emit_sequence, evaluate, is_loeschian,
                       represent_fast)
from loeschian.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_classify_representable(capsys):
    code, out, err = invoke(capsys, "classify", "91")
    assert code == 0
    assert out == "representable; witness [9, 1]\n"


def test_classify_not_representable(capsys):
    code, out, err = invoke(capsys, "classify", "10")
    assert code == 1
    assert out == "not representable; witness prime 2 has odd exponent 1\n"


def test_classify_json(capsys):
    code, doc = invoke_json(capsys, "classify", "91", "--json")
    assert code == 0
    assert doc == {"n": "91", "representable": True, "witness": ["9", "1"]}

    code, doc = invoke_json(capsys, "--json", "classify", "10")
    assert code == 1
    assert doc == {
        "n": "10",
        "representable": False,
        "obstruction": {"prime": "2", "exponent": "1"},
    }


def test_represent_all_json(capsys):
    code, doc = invoke_json(capsys, "represent", "91", "--all", "--json")
    assert code == 0
    assert doc == {"n": "91", "representations": [["9", "1"], ["6", "5"]]}


def test_represent_default_and_fast(capsys):
    code, out, _ = invoke(capsys, "represent", "91")
    assert code == 0 and out == "[9, 1]\n"

    code, out, _ = invoke(capsys, "represent", "91", "--fast")
    assert code == 0 and out == "[9, 1]\n"

    code, out, _ = invoke(capsys, "represent", "0")
    assert code == 0 and out == "[0, 0]\n"

    code, out, _ = invoke(capsys, "represent", "0", "--fast")
    assert code == 0 and out == "[0, 0]\n"


def test_represent_all_near_two_to_the_64_comes_from_the_factorization(capsys):
    # 7 * 13 * 19 * 31 * 37 * 43 * 400009 * 500029, a 64-bit value with 128
    # representations; a scan would visit about 1.8 * 10^9 candidates.
    n = 17056574766001938349
    start = perf_counter()
    code, doc = invoke_json(capsys, "represent", str(n), "--all", "--json")
    elapsed = perf_counter() - start
    assert code == 0
    pairs = [(int(a), int(b)) for a, b in doc["representations"]]
    assert all(a >= b >= 0 and evaluate(a, b) == n for a, b in pairs)
    assert [b for _, b in pairs] == sorted({b for _, b in pairs})
    assert len(pairs) == count_formula(n) == 128
    assert elapsed < 2.0


def test_internal_errors_get_their_own_exit_code(capsys, monkeypatch):
    def broken(n):
        raise RuntimeError(f"constructed representation for {n} failed verification")

    monkeypatch.setattr(cli_mod, "is_loeschian", broken)
    code, out, err = invoke(capsys, "classify", "91")
    assert code == cli_mod.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: constructed representation for 91 failed verification\n"
    assert "Traceback" not in err


def test_represent_negative_answer(capsys):
    code, doc = invoke_json(capsys, "represent", "10", "--json")
    assert code == 1
    assert doc == {"n": "10", "representation": None}

    code, doc = invoke_json(capsys, "represent", "10", "--all", "--json")
    assert code == 1
    assert doc == {"n": "10", "representations": []}


def test_represent_flag_conflict(capsys):
    code, out, err = invoke(capsys, "represent", "91", "--all", "--fast")
    assert code == 2
    assert "error" in err

    code, out, err = invoke(capsys, "represent", "91", "--all", "--fast", "--json")
    assert code == 2
    assert out == ""
    assert "not allowed with argument --all" in err


def test_count(capsys):
    code, out, _ = invoke(capsys, "count", "1")
    assert code == 0 and out == "1\n"

    code, out, _ = invoke(capsys, "count", "49")
    assert code == 0 and out == "2\n"

    code, out, _ = invoke(capsys, "count", "10")
    assert code == 1 and out == "0\n"

    code, _, err = invoke(capsys, "count", "0")
    assert code == 2 and "error" in err

    code, doc = invoke_json(capsys, "count", "91", "--json")
    assert code == 0 and doc == {"n": "91", "count": "2"}


def test_early_decided_answers_keep_their_output(capsys):
    # 2147483659 is 1 and 2147483693 is 2 (mod 3): the cofactor after trial
    # division decides "not representable" before rho runs.
    n = 2147483659 * 2147483693
    assert count_formula(n) == 0 and represent_fast(n) is None
    assert is_loeschian(n).obstruction == (2147483693, 1)
    texts = {
        ("count",): "0\n",
        ("classify",): "not representable; witness prime 2147483693 has odd exponent 1\n",
        ("represent",): f"{n} is not representable\n",
        ("represent", "--fast"): f"{n} is not representable\n",
    }
    docs = {
        ("count",): {"n": str(n), "count": "0"},
        ("classify",): {"n": str(n), "representable": False,
                        "obstruction": {"prime": "2147483693", "exponent": "1"}},
        ("represent",): {"n": str(n), "representation": None},
        ("represent", "--fast"): {"n": str(n), "representation": None},
    }
    for argv, text in texts.items():
        assert invoke(capsys, argv[0], str(n), *argv[1:]) == (1, text, "")
        assert invoke_json(capsys, argv[0], str(n), *argv[1:], "--json") == (1, docs[argv])


def test_prime_rep(capsys):
    code, out, _ = invoke(capsys, "prime-rep", "7")
    assert code == 0 and out == "[2, 1]\n"

    code, out, err = invoke(capsys, "prime-rep", "5")
    assert code == 1
    assert "no representation" in out

    code, _, err = invoke(capsys, "prime-rep", "6")
    assert code == 2 and "error" in err


def test_prime_rep_refusal_json(capsys):
    code, doc = invoke_json(capsys, "prime-rep", "5", "--json")
    assert code == 1
    assert doc["representable"] is False


def test_root(capsys):
    code, out, _ = invoke(capsys, "root", "13")
    assert code == 0 and out == "3\n"

    code, _, err = invoke(capsys, "root", "5")
    assert code == 2 and "error" in err


def test_compose_variants(capsys):
    code, out, _ = invoke(capsys, "compose", "2", "1", "2", "1")
    assert code == 0 and out == "[5, 3]\n"

    code, out, _ = invoke(capsys, "compose", "2", "1", "2", "1", "--variant", "2")
    assert code == 0 and out == "[7, 0]\n"

    code, out, _ = invoke(capsys, "compose", "1", "1", "1", "1", "--variant", "5")
    assert code == 0 and out == "[3, 3]\n"

    code, _, err = invoke(capsys, "compose", "1", "1", "1", "1", "--variant", "7")
    assert code == 2


def test_compose_canonicalizes_inputs(capsys):
    code, doc = invoke_json(capsys, "compose", "1", "2", "3", "1", "--json")
    assert code == 0
    assert doc["first"] == ["2", "1"]
    assert doc["second"] == ["3", "1"]
    assert doc["form"] == "plus"
    assert doc["variant"] == 1
    assert doc["result"] == ["6", "5"]


def test_compose_overflow(capsys):
    big = "4294967295"
    code, _, err = invoke(capsys, "compose", big, big, big, big)
    assert code == 3
    assert "overflow" in err


def test_convert_both_directions(capsys):
    code, out, _ = invoke(capsys, "convert", "2", "1")
    assert code == 0 and out == "[2, 3]\n[1, 3]\n"

    code, out, _ = invoke(capsys, "convert", "2", "3", "--direction", "minus-to-plus")
    assert code == 0 and out == "[2, 1]\n"

    code, _, err = invoke(capsys, "convert", "3", "2", "--direction", "minus-to-plus")
    assert code == 2 and "error" in err

    code, doc = invoke_json(capsys, "convert", "2", "1", "--json")
    assert doc == {
        "direction": "plus-to-minus",
        "input": ["2", "1"],
        "pairs": [["2", "3"], ["1", "3"]],
    }


def test_lift(capsys):
    code, out, _ = invoke(capsys, "lift", "5/7", "3/7")
    assert code == 0 and out == "1 [1, 0]\n"

    code, out, _ = invoke(capsys, "lift", "2", "1")
    assert code == 0 and out == "7 [2, 1]\n"

    code, out, _ = invoke(capsys, "lift", "4194320/1099520016403", "1099517919237/1099520016403")
    assert code == 0 and out == "1 [1, 0]\n"

    code, _, err = invoke(capsys, "lift", "1/2", "5/2")
    assert code == 2 and "not an integer" in err

    code, _, err = invoke(capsys, "lift", "1/0", "1")
    assert code == 2


def test_sequence(capsys):
    code, out, _ = invoke(capsys, "sequence", "--limit", "13")
    assert code == 0
    assert out.split() == ["0", "1", "3", "4", "7", "9", "12", "13"]

    code, doc = invoke_json(capsys, "sequence", "--limit", "13", "--json")
    assert doc == {"limit": "13", "terms": ["0", "1", "3", "4", "7", "9", "12", "13"]}

    # Both outputs hold every term of emit_sequence, on each side of the segment edges.
    for limit in (0, 1, 2, 65535, 65536, 65537, 200000):
        terms = [str(t) for t in emit_sequence(limit)]
        code, out, _ = invoke(capsys, "sequence", "--limit", str(limit))
        assert (code, out) == (0, "".join(f"{t}\n" for t in terms)), limit
        code, doc = invoke_json(capsys, "sequence", "--limit", str(limit), "--json")
        assert (code, doc) == (0, {"limit": str(limit), "terms": terms}), limit


def test_text_sequence_writes_each_term_as_it_is_made():
    # The terms up to the limit never sit in memory at once: text output writes
    # each term as its segment yields it. Output goes to devnull, since
    # capturing it would hold all of it in memory.
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run(["sequence", "--limit", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000, f"traced peak {peak} bytes"


def test_factor(capsys):
    code, out, _ = invoke(capsys, "factor", "91")
    assert code == 0 and out == "7 * 13\n"

    code, out, _ = invoke(capsys, "factor", "147")
    assert code == 0 and out == "3 * 7^2\n"

    code, out, _ = invoke(capsys, "factor", "1")
    assert code == 0 and out == "1\n"

    code, doc = invoke_json(capsys, "factor", "91", "--json")
    assert doc == {"n": "91", "factors": [["7", "1"], ["13", "1"]]}


def test_verify_residues_json(capsys):
    code, doc = invoke_json(capsys, "verify", "residues", "--max", "100", "--json")
    assert code == 0
    assert doc["kind"] == "residues"
    assert doc["checked"] == "5151"
    assert doc["mismatches"] == []
    assert isinstance(doc["elapsed_ms"], float)


def test_verify_residues_refuses_a_limit_past_the_guard(capsys):
    code, out, err = invoke(capsys, "verify", "residues", "--max", "14141")
    assert (code, out) == (2, "")
    assert err == "error: limit=14141 gives 100005153 pairs, past the sweep guard 100000000\n"
    code, out, err = invoke(capsys, "verify", "residues", "--max", "100000001", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: limit=100000001 gives ")


def test_verify_conjecture_and_primes(capsys):
    code, out, _ = invoke(capsys, "verify", "conjecture", "--max", "500", "--workers", "1")
    assert code == 0
    assert "mismatches 0" in out

    code, doc = invoke_json(
        capsys, "verify", "primes", "--max", "100", "--json"
    )
    assert code == 0 and doc["checked"] == "25"


def test_verify_factors_records_sampling(capsys):
    code, doc = invoke_json(
        capsys, "verify", "factors", "--max", "5", "--samples", "10", "--seed", "7", "--json"
    )
    assert code == 0
    assert doc["samples"] == "10"
    assert doc["seed"] == "7"
    assert doc["checked"] == "10"


def test_verify_worker_default_is_cpu_count(capsys, monkeypatch):
    # The CPU count alone sets the default; no environment variable overrides it.
    monkeypatch.setenv("LOESCHIAN_WORKERS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    code, doc = invoke_json(capsys, "verify", "conjecture", "--max", "50", "--json")
    assert code == 0
    assert doc["workers"] == 5

    code, doc = invoke_json(
        capsys, "verify", "conjecture", "--max", "50", "--workers", "2", "--json"
    )
    assert doc["workers"] == 2


def _run_json(*argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([*argv, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


def _pair(rep):
    return [str(rep.a), str(rep.b)]


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(0, 10**6), st.integers(0, U64_MAX)))
@example(0)
@example(1)
@example(2**32 - 1)
@example(2**32)
@example(2**32 + 1)
@example(U64_MAX)
def test_cli_json_matches_the_library(n):
    verdict = is_loeschian(n)
    if verdict.representable:
        expected = 0, {"n": str(n), "representable": True, "witness": _pair(verdict.witness)}
    else:
        p, e = verdict.obstruction
        expected = 1, {"n": str(n), "representable": False,
                       "obstruction": {"prime": str(p), "exponent": str(e)}}
    assert _run_json("classify", str(n)) == (*expected, "")

    if n == 0:
        code, doc, err = _run_json("count", "0")
        assert code == 2 and doc is None and err.startswith("error: ")
    else:
        count = count_formula(n)
        doc = {"n": str(n), "count": str(count)}
        assert _run_json("count", str(n)) == (0 if count else 1, doc, "")

    rep = represent_fast(n) if n else verdict.witness
    doc = {"n": str(n), "representation": _pair(rep) if rep else None}
    assert _run_json("represent", str(n), "--fast") == (0 if rep else 1, doc, "")


def test_json_output_is_compact_single_line(capsys):
    code, out, _ = invoke(capsys, "classify", "91", "--json")
    assert out.count("\n") == 1
    assert ": " not in out and ", " not in out


def test_usage_errors(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "represent")[0] == 2
    assert invoke(capsys, "represent", "-5")[0] == 2
    assert invoke(capsys, "represent", "18446744073709551616")[0] == 2
    assert invoke(capsys, "represent", "ninety")[0] == 2
    for text in ("-1", "18446744073709551616"):  # the parser's own range check words the error
        code, out, err = invoke(capsys, "count", text)
        assert (code, out) == (2, "") and f"argument n: {text} is outside the unsigned" in err, err
    for bound in (10**17, U64_MAX):
        code, out, err = invoke(capsys, "verify", "primes", "--max", str(bound))
        assert (code, out) == (2, "") and err.startswith("error: "), err


def test_closed_pipe_exits_quietly_with_the_handler_code():
    # The output is far larger than a pipe buffer, so the write after the
    # reader has gone fails with EPIPE, as under `loeschian sequence | head -1`.
    env = dict(os.environ, PYTHONPATH=str(Path(loeschian.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from loeschian.cli import main; main()",
         "sequence", "--limit", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    with proc.stderr:
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


def test_installed_script_matches_in_process_output(capsys):
    exe = shutil.which("loeschian")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "represent", "91", "--all", "--json"], capture_output=True, text=True
    )
    assert result.returncode == 0
    _, out, _ = invoke(capsys, "represent", "91", "--all", "--json")
    assert result.stdout == out


def test_console_script_entry_matches_in_process_output(capsys):
    # The [project.scripts] entry is what an installed loeschian script
    # calls; run it the same way with only src on the import path, so a
    # broken entry fails here even where nothing is installed.
    tomllib = pytest.importorskip("tomllib")
    src = Path(loeschian.__file__).parents[1]
    project = tomllib.loads((src.parent / "pyproject.toml").read_text())["project"]
    module, function = project["scripts"]["loeschian"].split(":")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    result = subprocess.run(
        [sys.executable, "-c", script, "represent", "91", "--all", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    _, out, _ = invoke(capsys, "represent", "91", "--all", "--json")
    assert result.stdout == out


@pytest.mark.parametrize("module", ["loeschian", "loeschian.cli"])
def test_python_dash_m_matches_in_process_output(capsys, module):
    # The package and the cli module both run the CLI under `python -m`,
    # with no install: only src on the import path.
    src = str(Path(loeschian.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", module, "represent", "91", "--all", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    _, out, _ = invoke(capsys, "represent", "91", "--all", "--json")
    assert result.stdout == out
