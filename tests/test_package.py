"""The package's top level: what `import strongpow` and a command load at
start-up, the names it exports, and the README's Library example run as
written."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# Every name the package exported when it imported all its modules eagerly,
# less graph_isomorphic, IntMatrix, twin_classes, adjacency,
# to_matrix_market and the Cayley witness (ConnectionSet,
# full_connection_set, cayley_graph), which only the tests use
# (tests/reference.py), and with the graph readers twin_quotient and
# graph_to_matrix_market.
_PUBLIC = """SizeGuardError FiniteGroup GroupError GroupSpecError InvalidOrderError
    MissingInverseError NoIdentityError NotAssociativeError NotLatinSquareError
    element_order euler_phi is_cyclic load_cayley_table_csv make_cyclic
    make_dihedral make_direct_product make_from_table make_klein make_symmetric
    noncyclic_corpus parse_group_spec Graph chromatic_number_exact complete_graph
    degree_sequence graph_from_edges graph_to_dot graph_to_json
    graph_to_matrix_market is_complete is_regular strong_power_graph
    twin_quotient vertex_connectivity
    ExactSpectrum algebraic_connectivity char_poly_exact
    char_poly_from_spectrum closed_form_spectrum eigenvalues_numeric laplacian
    laplacian_spectrum laplacian_energy_closed_form laplacian_energy_from_spectrum
    spanning_tree_count_formula spanning_tree_count_kirchhoff
    clique_plus_vertex_adjacency_permanent clique_plus_vertex_shape
    clique_plus_vertex_laplacian_permanent complete_graph_laplacian_permanent
    permanent_ryser cayley_classification chi_formula
    cyclic_line_graph_classification is_line_graph
    kappa_formula CHECK_NAMES CheckRecord KnownDiscrepancy
    VerifyReport load_known_discrepancies run_verify __version__""".split()


def _fresh_python(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, where no test has imported anything,
    with the interpreter's command-line flags."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60,
    )


def test_import_does_not_load_the_cli():
    proc = _fresh_python("import sys, strongpow; print(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert "'numpy'" not in proc.stdout
    assert "'strongpow.cli'" not in proc.stdout


# runs `python -m strongpow ARGV`, then reports whether importlib.resources,
# dataclasses and numpy were loaded
_RUN_MAIN = (
    "import runpy, sys\n"
    "sys.argv[0] = 'strongpow'\n"
    "try:\n"
    "    runpy.run_module('strongpow', run_name='__main__')\n"
    "finally:\n"
    "    print('importlib.resources loaded:', 'importlib.resources' in sys.modules,\n"
    "          file=sys.stderr)\n"
    "    print('dataclasses loaded:', 'dataclasses' in sys.modules, file=sys.stderr)\n"
    "    print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
)


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--range", "2..5"], 0),
    (["--help"], 0),
    (["sweep", "--range", "5"], 2),
    (["invariants", "--format", "json", "--group", "zn:16"], 0),
    (["invariants", "--format", "json", "--group", "dihedral:8"], 0),
    (["invariants", "--format", "json", "--group", "product:zn:2+zn:8"], 0),
    (["build", "--group", "dihedral:8", "--format", "json"], 0),
    (["build", "--group", "zn:12", "--format", "dot"], 0),
    (["build", "--group", "zn:12", "--format", "mtx"], 0),
    (["verify", "--family", "cyclic", "--range", "2..12", "--checks", "kappa,perm_adj,linegraph"], 0),
    (["verify", "--family", "cyclic", "--range", "2..12", "--checks", "tau,le,charpoly"], 0),
])
def test_commands_without_numeric_work_start_without_numpy(argv, code):
    # -S: no site hook preloads a module, so each one seen here is the
    # command's own
    proc = _fresh_python(_RUN_MAIN, *argv, flags=("-S",))
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-3:] == [
        "importlib.resources loaded: False", "dataclasses loaded: False", "numpy loaded: False"]


def test_the_float_eigensolve_loads_numpy():
    argv = ["verify", "--family", "cyclic", "--range", "2..6", "--checks", "spectrum"]
    proc = _fresh_python(_RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "numpy loaded: True"


def test_integers_past_4300_digits_are_written_outside_the_cli():
    # CPython refuses, by default, to write an int of more than 4300 digits;
    # each conversion lifts the limit for itself and restores it
    code = (
        "import sys\n"
        "from strongpow.cli import bundle_to_json\n"
        "from strongpow.formulas import _text, spanning_tree_count_formula\n"
        "from strongpow.verify import run_verify\n"
        "limit = sys.get_int_max_str_digits()\n"
        "assert _text(10**5000) == '1' + '0' * 5000\n"
        "assert bundle_to_json({'x': 10**5000}) == '{\\n  \"x\": 1' + '0' * 5000 + '\\n}\\n'\n"
        "(rec,) = run_verify('cyclic', 1400, 1400, ('tau',)).records\n"
        "assert rec.status == 'agree', rec\n"
        "assert rec.formula == _text(spanning_tree_count_formula(1400, True))\n"
        "assert len(rec.formula) > 4300\n"
        "assert sys.get_int_max_str_digits() == limit\n"
        "print(limit)\n"
    )
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_every_public_name_still_resolves():
    import strongpow
    import strongpow.cli

    for name in _PUBLIC:
        assert getattr(strongpow, name) is not None, name
    assert set(_PUBLIC) <= set(dir(strongpow))
    assert set(_PUBLIC) == set(strongpow.__all__)
    assert strongpow.cli.permanent_ryser is strongpow.permanent_ryser
    with pytest.raises(AttributeError):
        strongpow.no_such_name
    star = {}
    exec("from strongpow import *", star)
    assert set(_PUBLIC) <= set(star)
    # a module that holds public names is an attribute before it is imported
    proc = _fresh_python("import strongpow; print(strongpow.verify.run_verify.__name__)")
    assert proc.stdout == "run_verify\n", proc.stderr


def test_readme_library_block_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    lines = block.splitlines()
    namespace = {}
    values = []
    for stmt in ast.parse(block).body:
        code = ast.Module([stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        # each expression's comment starts with the value it evaluates to
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        assert comment.strip().startswith(repr(value)), (comment, value)
        values.append(value)
    assert values.count(540) == 2
    assert values.count(9288) == 2
    assert Fraction(34, 3) in values
    assert values[-4:-1] == [False, True, None]


def test_value_classes_are_immutable_and_compare_by_value():
    import copy
    import pickle

    from strongpow import ExactSpectrum, Graph, make_klein, twin_quotient

    klein = make_klein()
    # a value class keeps a tuple of its own, whatever sequence it is given
    makers = [lambda: Graph(3, (2, 1, 0)), lambda: Graph(3, [2, 1, 0]),
              lambda: ExactSpectrum(((2, 1), (0, 1))), lambda: ExactSpectrum([[2, 1], [0, 1]]),
              lambda: ExactSpectrum(p for p in ((2, 1), (0, 1)))]
    for make in makers:
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and a is not b
        assert copy.copy(a) == a
        name = type(a).__slots__[0]
        assert a != (getattr(a, name),)  # no tuple equality
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert pickle.loads(pickle.dumps(a)) == a
    assert Graph(3, (2, 1, 0)) != Graph(3, (0, 0, 0))
    assert Graph(3, [2, 1, 0]) == Graph(3, (2, 1, 0))
    assert ExactSpectrum([(2, 1), (0, 1)]) == ExactSpectrum(((2, 1), (0, 1)))
    # changing the source list afterwards leaves the graph as validated
    adj = [2, 1, 0]
    g = Graph(3, adj)
    adj[0] = 0b1000
    assert g.adj == (2, 1, 0)
    assert twin_quotient(g, True) == twin_quotient(Graph(3, (2, 1, 0)), True)
    # a generator is read once, so its order is checked as well
    with pytest.raises(ValueError, match="strictly decreasing"):
        ExactSpectrum(p for p in ((0, 1), (2, 1)))
    # a group compares by identity, and its copy is a group of its own
    assert make_klein() != klein == klein
    assert copy.copy(klein).table == klein.table
    # a graph's twin partition is a cache: equality, hashing, repr and
    # pickling read only n and adj, and a copy computes its own
    path = Graph(3, (2, 5, 2))
    assert repr(path) == "Graph(n=3, adj=(2, 5, 2))"
    for other in (copy.copy(path), pickle.loads(pickle.dumps(path))):
        assert other == path and hash(other) == hash(path)
        assert twin_quotient(other, True) == twin_quotient(path, True) == (
            (2, 1), ((0, -1), (-1, 2)), (1, 2))
