import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import unicomplex
from unicomplex import cli, morse, shelling, universal_fp
from unicomplex.cli import UsageError, dispatch, emit_report
from unicomplex.errors import AcyclicityError
from unicomplex.scomplex import SIMPLEX_BUDGET, format_facet_list
from unicomplex.universal_fp import UniversalKind, build_universal


def run(*argv):
    return dispatch(list(argv))


def test_fvector_report():
    code, text = run("fvector", "--variant", "K", "--p", "3", "--n", "3")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["formula"] == ["1", "13", "78", "234"]
    assert rep["results"]["sphere_count"] == "168"


def test_fvector_both_methods_match():
    code, text = run(
        "fvector", "--variant", "X", "--p", "3", "--n", "2", "--method", "both"
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["enumeration"] == rep["results"]["formula"]
    assert rep["results"]["match"] is True


@pytest.mark.parametrize("variant,p,n,entries", [
    ("K", 3, 3, ["1", "12", "54"]),
    ("X", 3, 2, ["1", "6"]),
])
def test_fvector_link_enumeration(variant, p, n, entries):
    argv = ("fvector", "--variant", variant, "--p", str(p), "--n", str(n),
            "--link-dim", "0")
    _, formula_only = run(*argv)
    for method in ("enumeration", "both"):
        code, text = run(*argv, "--method", method)
        assert code == 0
        results = json.loads(text)["results"]
        assert results["formula"] == results["enumeration"] == entries
        assert results["match"] is True
    assert run(*argv, "--method", "formula") == (0, formula_only)
    assert "enumeration" not in json.loads(formula_only)["results"]


@pytest.mark.parametrize("link_dim", [[], ["--link-dim", "1"]])
def test_fvector_computes_the_closed_form_once(link_dim, monkeypatch):
    # the sphere count is read off the f-vector the report already holds
    real = universal_fp.formula_f_vector
    calls = []

    def counting(kind, link_dim=None):
        calls.append((kind, link_dim))
        return real(kind, link_dim)

    monkeypatch.setattr(universal_fp, "formula_f_vector", counting)
    argv = ("fvector", "--variant", "K", "--p", "3", "--n", "3", *link_dim)
    code, text = run(*argv)
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    assert run(*argv) == (code, text)


def test_fvector_link_enumeration_mismatch_exits_1(monkeypatch):
    real = universal_fp.formula_f_vector

    def one_too_many(kind, link_dim=None):
        # only the link's closed form: build_universal checks the whole
        # complex against the same function
        fv = real(kind, link_dim)
        return fv if link_dim is None else fv[:-1] + (fv[-1] + 1,)

    monkeypatch.setattr(universal_fp, "formula_f_vector", one_too_many)
    code, text = run("fvector", "--variant", "K", "--p", "3", "--n", "3",
                     "--link-dim", "0", "--method", "both")
    assert code == 1
    assert json.loads(text)["results"]["match"] is False


def test_morse_report():
    code, text = run("morse", "--variant", "K", "--p", "2", "--n", "3")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["acyclic"] is True
    assert rep["results"]["critical"] == {"0": "1", "2": "13"}


@pytest.mark.parametrize("variant,p,n,euler,critical", [
    ("K", "2", "3", "14", {"0": "1", "2": "13"}),
    ("X", "3", "2", "-16", {"0": "1", "1": "17"}),
    ("K", "5", "1", "1", {"0": "1"}),
])
def test_morse_report_euler_bookkeeping(variant, p, n, euler, critical):
    code, text = run("morse", "--variant", variant, "--p", p, "--n", n)
    assert code == 0
    res = json.loads(text)["results"]
    assert (res["euler"], res["critical"]) == (euler, critical)
    assert res["euler_consistent"] is True
    assert not {"middle_critical", "pivot_free_facets",
                "axis_avoiding_basis_count"} & set(res)


def test_morse_report_flags_a_middle_critical_cell(tmp_path):
    # a filled triangle a b c with the loop b c d; pivot c leaves the
    # vertex c and the edge b d critical
    facets = tmp_path / "loop.facets"
    facets.write_text("a b c\nc d\nb d\n")
    code, text = run("morse", "--facets", str(facets), "--pivots", "2")
    assert code == 0
    res = json.loads(text)["results"]
    assert (res["euler"], res["critical"]) == ("0", {"0": "1", "1": "1"})
    assert res["euler_consistent"] is False


@pytest.mark.parametrize("argv", [
    ["morse", "--variant", "K", "--p", "2", "--n", "3"],
    ["zcheck", "--n", "2", "--max-norm", "3"],
])
def test_cyclic_matching_exits_1_with_one_line(monkeypatch, argv):
    cycle = [(0,), (0, 1), (1,), (1, 2)]
    monkeypatch.setattr(morse, "_closed_v_path", lambda *band: cycle)
    code, text = run(*argv)
    assert code == 1
    assert text.startswith("self-check failed: ")
    assert text.count("\n") == 1 and text.endswith("\n")


def test_homology_report():
    code, text = run("homology", "--variant", "K", "--p", "3", "--n", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["betti"] == ["0", "3"]
    assert rep["results"]["torsion_free"] is True


def test_bhargava_report():
    code, text = run("bhargava", "--set", "geometric:1:2", "--k", "3")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["k3"]["factorial"] == "168"


def test_bhargava_large_prime_is_fast():
    start = time.perf_counter()
    code, _ = run("bhargava", "--set", "integers", "--k", "3",
                  "--primes", "1000000000000000003")
    assert code == 0
    assert time.perf_counter() - start < 1.0


def test_bhargava_large_prime_difference_is_fast():
    start = time.perf_counter()
    code, text = run("bhargava", "--set", "list:0,1000000000000000003", "--k", "1")
    assert code == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(text)["results"]["k1"]["factorial"] == "1000000000000000003"


def test_bhargava_integers_at_k400_is_fast():
    # a fresh process, as the command is run; nu_k(Z, p) = p^{v_p(k!)}
    src = str(Path(unicomplex.__file__).resolve().parents[1])
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "unicomplex.cli", "bhargava", "--set", "integers",
         "--k", "400", "--primes", "2,3,5,7"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert time.perf_counter() - start < 1.0
    results = json.loads(out.stdout)["results"]
    assert len(results) == 401
    for k in range(401):
        for p in (2, 3, 5, 7):
            legendre = sum(k // p**i for i in range(1, 9))  # 2^9 > 400
            assert int(results[f"k{k}"][f"nu_p{p}"]) == p**legendre


def test_cli_import_leaves_numpy_out():
    src = str(Path(unicomplex.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, unicomplex.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_byte_determinism(tmp_path):
    # the argvs run twice, interleaved, so that state one call leaves in
    # the parser that dispatch shares would change a later report
    out = tmp_path / "k23.facets"
    argvs = (("fvector", "--variant", "K", "--p", "5", "--n", "2"),
             ("verify-all", "--pairs", "2,2", "--oracle-samples", "50"),
             ("morse", "--variant", "K", "--p", "3", "--n", "2"),
             ("zcheck", "--n", "3", "--max-norm", "3"),
             ("shifted", "--variant", "K", "--p", "2", "--n", "3"),
             ("build", "--ring", "fp", "--variant", "K", "--p", "2", "--n", "3",
              "--out", str(out)))
    passes = []
    for _ in range(2):
        passes.append([run(*argv) for argv in argvs] + [out.read_bytes()])
        out.unlink()
    assert passes[0] == passes[1]
    assert all(code == 0 for code, _ in passes[0][:-1])


def test_json_round_trips():
    _, text = run("zcheck", "--n", "2", "--max-norm", "3")
    rep = json.loads(text)
    assert json.loads(json.dumps(rep)) == rep


@pytest.mark.parametrize("n,max_norm,lines", [
    (2, 3, "[1,0] [0,1] [1,-1] [1,1] [1,-2] [2,-1] [2,1] [1,2]"),
    (3, 2, "[1,0,0] [0,1,0] [0,0,1] [1,0,-1] [0,1,-1] [1,-1,0] [1,1,0] "
           "[1,0,1] [0,1,1]"),
], ids=["n2-norm3", "n3-norm2"])
def test_zcheck_lists_the_lines_in_vertex_order(n, max_norm, lines):
    _, text = run("zcheck", "--n", str(n), "--max-norm", str(max_norm))
    assert json.loads(text)["results"]["lines"] == lines.split()


def test_csv_rows_equal_leaf_count():
    def leaves(obj, prefix):
        if isinstance(obj, dict):
            for k, v in sorted(obj.items()):
                yield from leaves(v, f"{prefix}.{k}" if prefix else k)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                yield from leaves(v, f"{prefix}[{i}]")
        else:
            yield prefix

    for argv in (["fvector", "--variant", "K", "--p", "3", "--n", "2"],
                 # the labeling's keys are vertex labels such as [0,1]
                 ["shifted", "--variant", "K", "--p", "2", "--n", "2"]):
        _, jtext = run(*argv)
        _, ctext = run(*argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(ctext)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert [key for key, _ in rows[1:]] == list(leaves(json.loads(jtext), ""))


def test_usage_errors_exit_2():
    code, _ = run("no-such-command")
    assert code == 2
    code, _ = run("fvector", "--variant", "K", "--p", "4", "--n", "2")
    assert code == 2
    code, _ = run("morse", "--facets", "/nonexistent/file")
    assert code == 2
    code, text = run("shelling", "--p", "3", "--n", "3")
    assert (code, text) == (
        2, "usage error: give either --facets FILE or --variant/--p/--n\n")


@pytest.mark.parametrize("argv", [
    ["morse", "--facets", "{F}", "--pivots", "a,b"],
    ["bhargava", "--set", "integers", "--k", "3", "--primes", "x"],
    ["buchstaber", "--facets", "{F}", "--primes", "x"],
    ["verify-all", "--pairs", "2"],
    ["homology", "--facets", "{F}", "--link-dim", "5"],
    ["homology", "--facets", "{F}", "--link-dim", "-1"],
    ["morse", "--facets", "{F}", "--pivots", "0", "--flavor", "line"],
    ["bhargava", "--set", "integers", "--k", "3", "--primes", str(2**89 - 1)],
    # 1000003 * 1000033: both factors lie past the trial-division bound
    ["bhargava", "--set", "list:0,1000036000099", "--k", "1"],
    ["build", "--ring", "z", "--variant", "X", "--n", "-1", "--max-norm", "3"],
    ["build", "--ring", "z", "--variant", "X", "--n", "0", "--max-norm", "3"],
    ["build", "--ring", "z", "--variant", "X", "--n", "2", "--max-norm", "0"],
    # an option of the other ring is refused, not echoed and ignored
    ["build", "--ring", "z", "--variant", "K", "--n", "3", "--max-norm", "2", "--p", "5"],
    ["build", "--variant", "K", "--p", "2", "--n", "2", "--max-norm", "4"],
    ["shelling", "--facets", "{F}"],
    ["verify-all", "--oracle-samples", "-5"],
    ["homology", "--facets", "{F}", "--budget", "-1"],
])
def test_bad_values_exit_2_with_one_line(tmp_path, argv):
    facets = tmp_path / "tri.facets"
    facets.write_text("a b\nb c\nc a\n")
    code, text = run(*(a.replace("{F}", str(facets)) for a in argv))
    assert code == 2
    assert text.count("\n") == 1 and text.endswith("\n")


def test_zero_counts_stay_valid(tmp_path):
    facets = tmp_path / "tri.facets"
    facets.write_text("a b\nb c\nc a\n")
    code, text = run("verify-all", "--pairs", "2,2", "--oracle-samples", "0")
    assert code == 0
    assert json.loads(text)["results"]["09 Z-lattice suite"]["detail"].startswith(
        "0 oracle trials")
    code, text = run("homology", "--facets", str(facets), "--budget", "0")
    assert (code, text) == (3, "resource error: 3 vertices exceed simplex budget 0\n")


@pytest.mark.parametrize("argv, line", [
    (["morse", "--facets", "{F}"],
     "usage error: --pivots is required for a facet-list complex"),
    (["shelling", "--facets", "{F}", "--order", "{O}"],
     "input error: unknown vertex label 'z' in order file"),
    (["bhargava", "--set", "geometric:1", "--k", "2"],
     "usage error: bad geometric spec 'geometric:1'"),
    (["bhargava", "--set", "list:1,x", "--k", "2"],
     "usage error: bad list spec 'list:1,x'"),
    (["bhargava", "--set", "naturals", "--k", "2"],
     "usage error: unknown ground set 'naturals'"),
    (["buchstaber", "--facets", "{E}"],
     "input error: bounds need at least one vertex"),
    (["verify-all", "--oracle-samples", "-5"],
     "usage error: argument --oracle-samples: expected an integer >= 0, got '-5'"),
    (["homology", "--facets", "{F}", "--budget", "-1"],
     "usage error: argument --budget: expected an integer >= 0, got '-1'"),
    (["homology", "--facets", "{F}", "--budget", "x"],
     "usage error: argument --budget: invalid int value: 'x'"),
    # a ground set that parses but is refused keeps the library's message
    (["bhargava", "--set", "list:1,1", "--k", "2"],
     "input error: explicit ground set has duplicates"),
    (["bhargava", "--set", "geometric:0:2", "--k", "2"],
     "input error: geometric ground set needs a != 0, q not in {0,1,-1}"),
    (["bhargava", "--set", "geometric:1:1", "--k", "2"],
     "input error: geometric ground set needs a != 0, q not in {0,1,-1}"),
    (["zcheck", "--pair", "{IMPURE}"],
     "input error: dual complex must be pure of dimension n-1 = 1"),
    (["zcheck", "--pair", "{RAGGED}"], "input error: matrix block missing or ragged"),
    (["zcheck", "--pair", "{NOMATRIX}"], "input error: matrix block missing or ragged"),
    (["build", "--ring", "z", "--variant", "K", "--n", "2"],
     "usage error: --ring z needs --variant, --n and --max-norm"),
    (["fvector", "--variant", "K", "--p", "3", "--n", "3", "--link-dim", "5"],
     "input error: link dimension 5 out of range [0, 2]"),
    # a negative k has no results, but its primes are checked first
    (["bhargava", "--set", "integers", "--k", "-1", "--primes", "4"],
     "input error: not a prime: 4"),
])
def test_input_errors_exit_2_with_the_line(tmp_path, argv, line):
    files = {
        "{F}": "a b\nb c\nc a\n",
        "{O}": "a b\nb z\n",
        "{E}": "",
        # an isolated vertex beside two edges, so not pure of dimension 1
        "{IMPURE}": "1 2\n1 3\n4\n\n1 0 -1 0\n0 1 -1 1\n",
        "{RAGGED}": "1 2\n1 3\n2 3\n\n1 0 -1\n0 1\n",
        "{NOMATRIX}": "1 2\n1 3\n2 3\n\n",
    }
    subs = {}
    for key, text in files.items():
        path = tmp_path / key.strip("{}")
        path.write_text(text)
        subs[key] = str(path)
    assert run(*(subs.get(a, a) for a in argv)) == (2, line + "\n")


MAIN_ARGVS = [
    (["fvector", "--variant", "K", "--p", "3", "--n", "3"], 0),
    (["zcheck", "--pair", "{BAD}"], 1),
    (["bhargava", "--set", "naturals", "--k", "2"], 2),
    (["homology", "--facets", "{F}", "--budget", "0"], 3),
]


def main_argv(tmp_path, argv):
    facets, bad = tmp_path / "tri.facets", tmp_path / "bad.pair"
    facets.write_text("a b\nb c\nc a\n")
    bad.write_text("1 2\n1 3\n2 3\n\n2 0 -1\n0 1 -1\n")
    subs = {"{F}": str(facets), "{BAD}": str(bad)}
    return [subs.get(a, a) for a in argv]


@pytest.mark.parametrize("argv, code", MAIN_ARGVS, ids=str)
def test_main_writes_reports_to_stdout_and_lines_to_stderr(tmp_path, capsys, argv,
                                                           code):
    argv = main_argv(tmp_path, argv)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    text = dispatch(argv)[1]
    assert (out, err) == ((text, "") if code < 2 else ("", text))


def test_console_script_keeps_the_exit_contract(tmp_path):
    # a fresh process, as the unicomplex script runs
    src = str(Path(unicomplex.__file__).resolve().parents[1])
    for argv, code in MAIN_ARGVS:
        argv = main_argv(tmp_path, argv)
        out = subprocess.run(
            [sys.executable, "-m", "unicomplex.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        text = dispatch(argv)[1]
        assert out.returncode == code
        assert (out.stdout, out.stderr) == ((text, "") if code < 2 else ("", text))


def test_bhargava_negative_k_reports_no_results():
    code, text = run("bhargava", "--set", "integers", "--k", "-1")
    assert code == 0
    assert json.loads(text) == {
        "command": "bhargava", "parameters": {"k": "-1", "set": "integers"},
        "results": {}, "version": unicomplex.__version__,
    }


def test_homology_of_an_empty_facet_file(tmp_path):
    empty = tmp_path / "e.facets"
    empty.write_text("")
    code, text = run("homology", "--facets", str(empty))
    assert code == 0
    assert json.loads(text) == {
        "command": "homology",
        "parameters": {"budget": str(SIMPLEX_BUDGET), "facets": str(empty),
                       "reisner": False},
        "results": {"betti": [], "euler": "0", "f_vector": ["1"], "torsion": [],
                    "torsion_free": True},
        "version": unicomplex.__version__,
    }


def test_shelling_facets_without_order_is_a_usage_error(tmp_path):
    facets = tmp_path / "tri.facets"
    facets.write_text("a b\nb c\nc a\n")
    code, text = run("shelling", "--facets", str(facets))
    assert (code, text) == (2, "usage error: constructing a shelling needs "
                               "--variant/--p/--n; --facets needs --order\n")


@pytest.mark.parametrize("argv", [
    ["homology", "--facets", "{DIR}"],
    ["shelling", "--facets", "{F}", "--order", "{DIR}"],
    ["build", "--variant", "K", "--p", "2", "--n", "2", "--out", "{DIR}"],
    ["homology", "--facets", "{LATIN1}"],
    ["morse", "--facets", "{LATIN1}", "--pivots", "0"],
    ["zcheck", "--pair", "{LATIN1}"],
    ["shelling", "--facets", "{F}", "--order", "{LATIN1}"],
])
def test_unreadable_files_exit_2_with_one_line(tmp_path, argv):
    facets = tmp_path / "tri.facets"
    facets.write_text("a b\nb c\nc a\n")
    latin1 = tmp_path / "latin1.facets"
    latin1.write_bytes("a b\nb \u00e9\n".encode("latin-1"))
    subs = {"{F}": str(facets), "{DIR}": str(tmp_path), "{LATIN1}": str(latin1)}
    code, text = run(*(subs.get(a, a) for a in argv))
    assert code == 2
    assert text.startswith("input error: ")
    if "{LATIN1}" in argv:
        assert text.startswith(f"input error: {latin1}: ")
    assert text.count("\n") == 1 and text.endswith("\n")


def test_dispatch_contract_on_generated_values(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    facets = str(tmp_path / "path.facets")
    with open(facets, "w") as fh:
        fh.write("a b\nb c\nc d\n")
    values = st.one_of(
        st.text(max_size=24), st.text(alphabet="0123456789,- ", max_size=24)
    )
    argvs = st.one_of(
        values.map(lambda t: ["morse", "--facets", facets, "--pivots", t]),
        values.map(lambda t: ["bhargava", "--set", "integers", "--k", "3",
                              "--primes", t]),
        values.map(lambda t: ["buchstaber", "--facets", facets, "--primes", t]),
        st.integers().map(lambda i: ["homology", "--facets", facets,
                                     "--link-dim", str(i)]),
    )

    @settings(max_examples=300, deadline=None, database=None)
    @given(argvs)
    def check(argv):
        code, text = dispatch(argv)
        if code in (0, 1):
            json.loads(text)
        else:
            assert code in (2, 3)
            assert text.count("\n") == 1 and text.endswith("\n")

    check()


def test_resource_error_exit_3():
    code, text = run("build", "--variant", "X", "--p", "5", "--n", "9")
    assert code == 3
    assert "budget" in text


def test_universal_build_with_large_n_refused_quickly():
    # 2^200 - 1 vertices: the refusal reads the vertex count, not the
    # closed-form simplex count, and prints neither
    for argv in (("build", "--variant", "X", "--p", "2", "--n", "200"),
                 ("homology", "--variant", "K", "--p", "2", "--n", "200")):
        start = time.perf_counter()
        code, text = run(*argv)
        assert time.perf_counter() - start < 0.2
        assert code == 3
        assert text == (f"resource error: {argv[2]}(F_2^200) has more simplices "
                        f"than the simplex budget {SIMPLEX_BUDGET}\n")


@pytest.mark.parametrize("argv,name", [
    *((["build", "--ring", "z", "--variant", v, "--n", str(n)], f"{v}(Z^{n})")
      for v in "XK" for n in (2, 3, 4)),
    (["zcheck", "--n", "3"], "K(Z^3)"),
])
def test_z_truncation_refused_before_enumerating(argv, name):
    # the vertices are counted shell by shell and the count stops at the
    # budget, so a norm four times larger is refused in about the same time
    # and memory; enumerating them took minutes and gigabytes at norm 200.
    # The module is loaded first, so that the peak is the command's own.
    import unicomplex.zlattice  # noqa: F401
    seconds = []
    for norm in (50, 200):
        tracemalloc.start()
        start = time.perf_counter()
        code, text = run(*argv, "--max-norm", str(norm), "--budget", "10")
        seconds.append(time.perf_counter() - start)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (code, text) == (3, f"resource error: truncated {name}, "
                                   f"max_norm={norm} exceeds simplex budget 10\n")
        assert peak < 2**20
    assert max(seconds) < 0.25
    assert abs(seconds[1] - seconds[0]) < 0.05


DIGIT_LIMIT_LINE = (f"a report integer has more than {sys.get_int_max_str_digits()} "
                    "digits, the interpreter's limit for printing it")


@pytest.mark.parametrize("method,seconds,line,n", [
    ("formula", 0.5, DIGIT_LIMIT_LINE, 400),
    ("both", 0.1, f"X(F_2^400) has more simplices than the simplex budget "
                  f"{SIMPLEX_BUDGET}", 400),
    ("formula", 0.5, DIGIT_LIMIT_LINE, 1600),
])
def test_fvector_with_large_n_refused_quickly(method, seconds, line, n):
    # a lower bound on the closed form's top entry refuses it before it is
    # formed, and with --method both the build's refusal comes first
    start = time.perf_counter()
    code, text = run("fvector", "--variant", "X", "--p", "2", "--n", str(n),
                     "--method", method)
    assert time.perf_counter() - start < seconds
    assert (code, text) == (3, f"resource error: {line}\n")



@pytest.mark.parametrize("argv", [
    ["bhargava", "--set", "integers", "--k", "1800"],
    ["bhargava", "--set", "geometric:1:7", "--k", "80"],
    ["fvector", "--variant", "K", "--p", "3", "--n", "200", "--link-dim", "3"],
])
def test_report_integer_past_digit_limit_exits_3(argv):
    code, text = run(*argv)
    assert code == 3
    assert text.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in text


@pytest.mark.parametrize("argv", [
    ["bhargava", "--set", "integers", "--k", "100000"],
    ["bhargava", "--set", "geometric:1:2", "--k", "10000"],
])
def test_bhargava_refuses_before_forming(argv):
    # a lower bound on k!_S refuses the report before any p-ordering runs
    # or any entry is formed; forming them would take minutes and gigabytes
    start = time.perf_counter()
    code, text = run(*argv, "--primes", "2")
    assert time.perf_counter() - start < 1
    assert (code, text) == (
        3, f"resource error: a report integer has more than "
           f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
           "for printing it\n")


@pytest.mark.parametrize("argv", [
    ["homology"],
    ["morse", "--pivots", "0"],
    ["shelling", "--order", "{F}"],
    ["shifted"],
    ["buchstaber"],
])
def test_facet_file_over_budget_exits_3(tmp_path, argv):
    # two tetrahedra on a common triangle: 23 distinct simplices, 15 each
    facets = tmp_path / "two.facets"
    facets.write_text("a b c d\nb c d e\n")
    argv = [a.replace("{F}", str(facets)) for a in argv]
    code, text = run(*argv, "--facets", str(facets), "--budget", "22")
    assert code == 3
    assert text == "resource error: closure exceeds simplex budget 22\n"
    code, _ = run(*argv, "--facets", str(facets), "--budget", "23")
    assert code in (0, 1)


def test_huge_facet_refused_before_closing(tmp_path):
    facets = tmp_path / "big.facets"
    facets.write_text(" ".join(f"v{i}" for i in range(40)) + "\n")
    start = time.perf_counter()
    code, text = run("homology", "--facets", str(facets))
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert text.count("\n") == 1 and "budget" in text


def test_one_budget_option():
    subparsers = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    with_budget = []
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert "--max-vertices" not in action.option_strings, name
            if action.dest == "budget":
                assert action.default == SIMPLEX_BUDGET, name
                with_budget.append(name)
    assert with_budget == ["build", "fvector", "homology", "morse", "shelling",
                           "shifted", "buchstaber", "zcheck"]


def test_build_and_reload_facets(tmp_path):
    out = tmp_path / "k32.facets"
    code, _ = run("build", "--variant", "K", "--p", "3", "--n", "2",
                  "--out", str(out))
    assert code == 0
    code, text = run("homology", "--facets", str(out))
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["betti"] == ["0", "3"]


def test_shelling_rejects_bad_user_order(tmp_path):
    facets = tmp_path / "path.facets"
    facets.write_text("a b\nb c\nc d\n")
    bad = tmp_path / "bad.order"
    bad.write_text("a b\nc d\nb c\n")
    code, text = run("shelling", "--facets", str(facets), "--order", str(bad))
    assert code == 1
    rep = json.loads(text)
    assert rep["results"]["verified"] is False
    assert rep["results"]["first_failing_index"] == "2"
    good = tmp_path / "good.order"
    good.write_text("a b\nb c\nc d\n")
    code, _ = run("shelling", "--facets", str(facets), "--order", str(good))
    assert code == 0


def test_order_file_read_like_a_facet_file(tmp_path):
    # comments, blank lines and CRLF line ends are skipped in an order file
    # as in a facet file, and a repeated label is refused the same way
    facets = tmp_path / "path.facets"
    facets.write_text("a b\nb c\nc d\n")
    order = tmp_path / "good.order"
    order.write_bytes(b"# a path\r\n\r\nb a  # first\r\nb c\r\n\r\nc d\r\n")
    code, _ = run("shelling", "--facets", str(facets), "--order", str(order))
    assert code == 0
    order.write_text("a b\nb c c\nc d\n")
    code, text = run("shelling", "--facets", str(facets), "--order", str(order))
    assert code == 2
    assert text == "input error: repeated vertex in facet line: 'b c c'\n"
    # every line is checked for a repeat before any label is looked up
    order.write_text("a b\nq r\nb c c\n")
    code, text3 = run("shelling", "--facets", str(facets), "--order", str(order))
    assert (code, text3) == (2, text)
    facets.write_text("a b\nb c c\nc d\n")
    code, text2 = run("homology", "--facets", str(facets))
    assert (code, text2) == (2, text)


def test_facet_file_layout_gives_the_same_report(tmp_path):
    facets = tmp_path / "k33.facets"
    plain = format_facet_list(build_universal(UniversalKind("K", 3, 3)))
    lines = plain.splitlines()
    reports = set()
    for layout in (plain,
                   "# K(F_3^3)\n\n" + "".join(f"{line} # c\n\n" for line in lines),
                   "".join("\t" + line.replace(" ", "\t") + "\n" for line in lines),
                   "\r\n".join(lines) + "\r\n"):
        facets.write_bytes(layout.encode())
        reports.add(run("homology", "--reisner", "--facets", str(facets)))
    (report,) = reports
    assert report[0] == 0 and json.loads(report[1])["results"]["cohen_macaulay"] is True


# sha256 prefixes and line counts of the `shelling --out` files, frozen from
# the label-based construction that the id-based one replaced
SHELLING_OUT_DIGESTS = {
    ("K", 3, 3): ("97146a675e309a11", 234),
    ("K", 5, 3): ("1304d9330ade533c", 3875),
    ("X", 3, 3): ("6083dd5e3d7498e9", 1872),
    ("X", 2, 3): ("a91f7a6475955784", 28),
    # the transport tables of the n = 4 recursion, and a prime past 5
    ("K", 2, 4): ("f55750f02189611b", 840),
    ("X", 2, 4): ("faffb9d6fe7398ee", 840),
    ("X", 7, 2): ("ba06f5d763765640", 1008),
}


@pytest.mark.parametrize("kind", list(SHELLING_OUT_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_shelling_out_is_byte_identical(tmp_path, kind):
    variant, p, n = kind
    out = tmp_path / "order.txt"
    code, _ = run("shelling", "--variant", variant, "--p", str(p), "--n", str(n),
                  "--out", str(out))
    assert code == 0
    data = out.read_bytes()
    digest, lines = SHELLING_OUT_DIGESTS[kind]
    assert (hashlib.sha256(data).hexdigest()[:16], data.count(b"\n")) == (digest, lines)


# sha256 prefixes and line counts of the `build --ring z --out` files, frozen
# from the builder that took one dot product per top-level candidate
Z_BUILD_OUT_DIGESTS = {
    ("K", 3, 6): ("2ab08e59cb900fef", 26750),
    ("X", 3, 4): ("69db2a4d2070b890", 21993),
    ("K", 4, 3): ("2eeb0baf45cb4b62", 66258),
    ("X", 2, 9): ("172f324af1a820f3", 437),
}


@pytest.mark.parametrize("kind", list(Z_BUILD_OUT_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_z_build_out_is_byte_identical(tmp_path, kind):
    variant, n, max_norm = kind
    out = tmp_path / "facets.txt"
    code, _ = run("build", "--ring", "z", "--variant", variant, "--n", str(n),
                  "--max-norm", str(max_norm), "--out", str(out))
    assert code == 0
    data = out.read_bytes()
    digest, lines = Z_BUILD_OUT_DIGESTS[kind]
    assert (hashlib.sha256(data).hexdigest()[:16], data.count(b"\n")) == (digest, lines)


# the same for `build --out` over F_p, frozen from the builder whose
# two-row finish returned one bitset of completing vertices per new vertex
FP_BUILD_OUT_DIGESTS = {
    ("K", 3, 4): ("7e99413871d1b750", 63181),
    ("X", 2, 4): ("237ee3dfb68342e4", 841),
    ("X", 7, 2): ("a7e96f9c3a3cac8c", 1009),
}


@pytest.mark.parametrize("kind", list(FP_BUILD_OUT_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_fp_build_out_is_byte_identical(tmp_path, kind):
    variant, p, n = kind
    out = tmp_path / "facets.txt"
    code, _ = run("build", "--variant", variant, "--p", str(p), "--n", str(n),
                  "--out", str(out))
    assert code == 0
    data = out.read_bytes()
    digest, lines = FP_BUILD_OUT_DIGESTS[kind]
    assert (hashlib.sha256(data).hexdigest()[:16], data.count(b"\n")) == (digest, lines)


# the six-vertex real projective plane: H_1 = Z/2, so Reisner fails at ()
RP2_FACETS = "1 2 3\n1 3 4\n1 4 5\n1 5 6\n1 2 6\n2 3 5\n2 4 5\n2 4 6\n3 4 6\n3 5 6\n"

# exit codes and sha256 prefixes of the reports, frozen from the library
# that carried f-vectors, sphere counts, Smith forms and p-orderings in
# wrapper classes
REPORT_DIGESTS = {
    ("fvector", "--variant", "K", "--p", "3", "--n", "4", "--link-dim", "1",
     "--format", "csv"): (0, "123b62e8467c1bc2"),
    ("fvector", "--variant", "X", "--p", "5", "--n", "3", "--link-dim", "0",
     "--format", "text"): (0, "9fe9e4fcb7f2751f"),
    ("fvector", "--variant", "K", "--p", "3", "--n", "3", "--link-dim", "0",
     "--method", "both", "--format", "csv"): (0, "b7a5169ac5d02925"),
    ("fvector", "--variant", "X", "--p", "2", "--n", "3", "--link-dim", "1",
     "--method", "both", "--format", "text"): (0, "90f034162e9978fa"),
    ("homology", "--variant", "K", "--p", "3", "--n", "3", "--reisner"):
        (0, "a2c02546ee840078"),
    ("homology", "--variant", "X", "--p", "3", "--n", "3", "--link-dim", "0"):
        (0, "1af8082197495e66"),
    ("homology", "--facets", "rp2.facets", "--reisner"): (0, "63b43c33e75e9e82"),
    ("morse", "--variant", "K", "--p", "3", "--n", "3"): (0, "6e32b92f76f587cf"),
    ("shelling", "--variant", "X", "--p", "3", "--n", "2"): (0, "934360f9cdc1d65d"),
    ("bhargava", "--set", "integers", "--k", "6", "--primes", "2,3"):
        (0, "1540a183c690ae93"),
    ("bhargava", "--set", "geometric:1:2", "--k", "5", "--primes", "2,3,7"):
        (0, "adefbe1f87c28233"),
    ("bhargava", "--set", "list:0,1,3,7,12", "--k", "4", "--primes", "2,3"):
        (0, "4a2a8bc08daee6e2"),
    ("buchstaber", "--variant", "K", "--p", "2", "--n", "3"): (0, "f99d13a89e8e12b8"),
    ("zcheck", "--n", "3", "--max-norm", "3"): (0, "d378eb6ccff7c840"),
    ("verify-all", "--pairs", "2,2;3,2", "--oracle-samples", "200"):
        (0, "ca5d51c8dbce4314"),
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_report_is_byte_identical(tmp_path, monkeypatch, argv):
    # run from tmp_path so that the facet file's relative path, which the
    # report echoes, is the same everywhere
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rp2.facets").write_text(RP2_FACETS)
    code, text = run(*argv)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (code, digest) == REPORT_DIGESTS[argv]


def test_shelling_construct_command():
    code, text = run("shelling", "--variant", "K", "--p", "3", "--n", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["verified"] is True
    assert rep["results"]["n_facets"] == "6"


@pytest.mark.parametrize(
    "error", [AssertionError("h-vector differs"), AcyclicityError([(0,), (0, 1)])]
)
def test_self_check_failure_exits_1_with_one_line(monkeypatch, error):
    def failing(kind, built=None):
        raise error

    monkeypatch.setattr(shelling, "construct_shelling_fp", failing)
    code, text = run("shelling", "--variant", "K", "--p", "3", "--n", "2")
    assert code == 1
    assert text == f"self-check failed: {error}\n"


def test_shifted_command():
    code, text = run("shifted", "--variant", "X", "--p", "2", "--n", "2")
    assert code == 0
    assert json.loads(text)["results"]["shifted"] is True
    code, text = run("shifted", "--variant", "X", "--p", "3", "--n", "2")
    assert json.loads(text)["results"]["shifted"] is False
    code, text = run("shifted", "--variant", "K", "--p", "2", "--n", "4")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["shifted"] is False
    assert "max_vertices" not in rep["parameters"]



def test_shifted_long_cycle_is_fast(tmp_path):
    # a 2*10^4-vertex cycle: far under the simplex budget, so the decision
    # must not grow with the square of the vertex count
    n = 2 * 10**4
    facets = tmp_path / "cycle.facets"
    facets.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    start = time.perf_counter()
    code, text = run("shifted", "--facets", str(facets))
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(text)["results"] == {"shifted": False}


def test_shifted_large_cone_gets_degree_sorted_labeling(tmp_path):
    # the join of the edge {y, z} with 2000 points is shifted; y and z lie in
    # 4002 faces each and every point in 4, so they take labels 1 and 2
    facets = tmp_path / "cone.facets"
    facets.write_text("".join(f"y z {i}\n" for i in range(2000)))
    code, text = run("shifted", "--facets", str(facets))
    assert code == 0
    results = json.loads(text)["results"]
    assert results["shifted"] is True
    want = {"y": "1", "z": "2", **{str(i): str(i + 3) for i in range(2000)}}
    assert results["labeling"] == want

def test_buchstaber_command(tmp_path):
    facets = tmp_path / "k4.facets"
    facets.write_text("a b\na c\na d\nb c\nb d\nc d\n")
    code, text = run("buchstaber", "--facets", str(facets), "--primes", "2,3")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["p3"]["s_fp"] == "2"
    assert rep["results"]["p2"]["gamma"] == "4"


def test_zcheck_pair_command(tmp_path):
    pair = tmp_path / "cp2.pair"
    pair.write_text("1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n")
    code, text = run("zcheck", "--pair", str(pair))
    assert code == 0
    assert json.loads(text)["results"]["pair_valid"] is True
    mutant = tmp_path / "bad.pair"
    mutant.write_text("1 2\n1 3\n2 3\n\n2 0 -1\n0 1 -1\n")
    code, text = run("zcheck", "--pair", str(mutant))
    assert code == 1
    rep = json.loads(text)
    assert rep["results"]["failing_facet"] == ["1", "2"]



def test_zcheck_pair_reads_under_budget(tmp_path):
    pair = tmp_path / "cp2.pair"
    pair.write_text("1 2\n1 3\n2 3\n\n1 0 -1\n0 1 -1\n")
    code, text = run("zcheck", "--pair", str(pair), "--budget", "1")
    assert code == 3
    assert text == "resource error: 3 vertices exceed simplex budget 1\n"
    code, _ = run("zcheck", "--pair", str(pair), "--budget", "6")
    assert code == 0

def test_verify_all_reduced_scale():
    code, text = run(
        "verify-all", "--pairs", "2,2;3,2", "--oracle-samples", "200"
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["all_passed"] is True


def test_verify_all_echoes_the_default_oracle_samples():
    # the default is resolved in the command, not in the parser
    code, text = run("verify-all", "--pairs", "2,2")
    assert code == 0
    assert json.loads(text)["parameters"] == {"oracle_samples": "10000", "pairs": "2,2"}
    assert cli.build_parser().parse_args(["verify-all"]).oracle_samples is None


def test_verify_all_timing_adds_only_seconds():
    argv = ("verify-all", "--pairs", "2,2", "--oracle-samples", "50")
    code, plain = run(*argv)
    timed_code, timed = run(*argv, "--timing")
    assert code == timed_code == 0
    rep = json.loads(timed)
    total = float(rep.pop("timing_seconds"))
    seconds = [float(entry.pop("seconds"))
               for name, entry in rep["results"].items() if name != "all_passed"]
    assert len(seconds) == 12 and min(seconds) >= 0
    assert sum(seconds) <= total + 0.01
    assert rep == json.loads(plain)
    assert "seconds" not in plain


def test_emit_text_format():
    _, text = run("fvector", "--variant", "K", "--p", "3", "--n", "2",
                  "--format", "text")
    assert "results.sphere_count" in text
    assert "3" in text


def test_emit_report_stringifies_integers():
    out = emit_report({"a": 5, "b": [1, 2], "c": True})
    rep = json.loads(out)
    assert rep == {"a": "5", "b": ["1", "2"], "c": True}


def test_emit_report_refuses_an_unknown_format():
    with pytest.raises(UsageError, match="unknown format 'yaml'"):
        emit_report({"a": 5}, "yaml")
