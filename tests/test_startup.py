"""Start-up: the package loads a module on first use, and each subcommand
loads only the modules it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import springerq
from springerq import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exports, by its home module; the five modules are
# exported too, so `from springerq import *` binds 59 names
EXPORTS = {
    "partitions": [
        "Partition", "OrbitLabel", "BranchMove", "ROW_REMOVAL", "ROW_SPLIT", "partitions_of",
        "conjugate", "dominance_leq", "closure_contains", "dim_centralizer", "orbit_codim",
        "orbit_dim", "has_gaps", "induced_orbit", "is_relevant_full", "is_relevant_parabolic",
        "is_richardson", "richardson_label", "branch_moves", "resolution_fiber_dim",
        "SupportInfo", "ft_support_info", "ft_support_flag", "FourierTableRow",
        "order_two_partition", "ft_table",
    ],
    "qseries": [
        "LaurentPoly", "gaussian_binomial", "og_poincare", "verify_sum_identity",
        "eval_at_one",
    ],
    "ic_engine": [
        "StalkTable", "MultiplicityTable", "solve_stalk_tables", "closed_form_f",
        "closed_form_t", "ic_stalk_poly", "fake_degree_poly",
    ],
    "springer_typec": [
        "Bipartition", "kostka", "kostka_order_two_closed_form", "standard_tableaux_count",
        "springer_label", "bipartition_dim", "euler_chi_trivial", "euler_chi_nontrivial",
        "verify_cc_identity", "verify_two_power_sum",
    ],
    "fano": [
        "FanoRow", "FanoCohomology", "fano_multiplicities", "fano_betti_poly",
        "fano_betti_poly_from_multiplicities", "fano_lines_table",
    ],
}
ALL = set(EXPORTS) | {name for names in EXPORTS.values() for name in names}


@pytest.fixture
def package(monkeypatch):
    """springerq with no export cached, so that each access goes through the
    package's __getattr__; the cache is restored afterwards."""
    for name in ALL:
        monkeypatch.delitem(vars(springerq), name, raising=False)
    return springerq


def test_every_export_is_the_object_of_its_home_module(package):
    assert len(ALL) == 59
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"springerq.{module}")
        assert getattr(package, module) is home
        for name in names:
            assert getattr(package, name) is getattr(home, name), name
    assert ALL <= set(vars(package))  # each one is cached after its first access


def test_every_export_is_in_its_home_modules_all():
    for module, names in springerq._EXPORTS.items():
        listed = importlib.import_module(f"springerq.{module}").__all__
        assert set(names.split()) <= set(listed), module


# the names each module exports and the package does not
MODULE_ONLY = {
    "partitions": [],
    "qseries": ["ZERO", "ONE", "Q", "one_minus_q", "sum_of_products"],
    "ic_engine": ["GRADING_NOTE"],
    "springer_typec": ["MAX_KOSTKA_COST"],
    "fano": [],
}


@pytest.mark.parametrize("module", EXPORTS)
def test_each_modules_all_is_its_package_exports_then_its_own_names(module):
    namespace = {}
    exec(f"from springerq.{module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(EXPORTS[module]) | set(MODULE_ONLY[module])
    listed = importlib.import_module(f"springerq.{module}").__all__
    assert len(set(listed)) == len(listed)
    assert listed == springerq._EXPORTS[module].split() + MODULE_ONLY[module]


def test_star_import_binds_the_59_exports(package):
    namespace = {}
    exec("from springerq import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == ALL
    assert all(namespace[name] is getattr(springerq, name) for name in ALL)


def test_dir_lists_every_export():
    assert ALL | {"__version__"} <= set(dir(springerq))
    assert set(springerq.__all__) == ALL and len(springerq.__all__) == 59


def test_an_unknown_attribute_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        package.nosuch
    assert not hasattr(package, "Partitions")
    with pytest.raises(ImportError):
        exec("from springerq import nosuch", {})


# Each probe runs in a fresh interpreter without site (python -S, whose
# preloads could hide an import) and writes, at exit, the repr of the sorted
# names in sys.modules as the last line of stderr (so that the probe loads no
# json): from an atexit handler, or, as python -m springerq ends through
# os._exit and runs none, from a wrapper around os._exit.
_AT_EXIT = ("import atexit, sys\n"
            "atexit.register(lambda: sys.stderr.write(repr(sorted(sys.modules)) + '\\n'))\n")
_AT_OS_EXIT = ("import os, sys\n"
               "def _exit(code, _exit=os._exit):\n"
               "    sys.stderr.write(repr(sorted(sys.modules)) + '\\n')\n"
               "    sys.stderr.flush()\n"
               "    _exit(code)\n"
               "os._exit = _exit\n")
RUNNERS = {
    "python -m springerq": _AT_OS_EXIT + "import runpy\n"
                          "runpy.run_module('springerq', run_name='__main__', alter_sys=True)\n",
    "springerq.cli:main": _AT_EXIT + "from springerq.cli import main\nsys.exit(main())\n",
}
FRONT = {"springerq", "springerq.cli", "springerq._util"}


def all_modules(code, *argv):
    """(exit code, every module in sys.modules at exit) of code run with argv."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, set(ast.literal_eval(proc.stderr.splitlines()[-1]))


def loaded_modules(code, *argv):
    """(exit code, the springerq modules in sys.modules at exit)."""
    returncode, modules = all_modules(code, *argv)
    return returncode, {m for m in modules if m.split(".")[0] == "springerq"}


def test_importing_the_package_loads_no_module():
    code = _AT_EXIT + "import springerq\n"
    assert loaded_modules(code) == (0, {"springerq"})
    code = _AT_EXIT + "import springerq\nspringerq.kostka\n"
    assert loaded_modules(code) == (0, {"springerq", "springerq._record", "springerq._util",
                                        "springerq.partitions", "springerq.springer_typec"})


def test_importing_ic_engine_loads_only_qseries():
    code = _AT_EXIT + "import springerq.ic_engine\n"
    assert loaded_modules(code) == (0, {"springerq", "springerq._record", "springerq.qseries",
                                        "springerq.ic_engine"})


def test_sibling_imports_sit_at_module_top_outside_cli():
    """Only cli and springer_typec.verify_two_power_sum import a sibling module
    when they run; every other module imports its siblings at its top."""
    late = {}
    for path in sorted(Path(SRC, "springerq").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.ImportFrom) and node.level for node in ast.walk(fn)):
                late.setdefault(path.stem, set()).add(fn.name)
    assert late.keys() == {"cli", "springer_typec"}
    assert late["springer_typec"] == {"verify_two_power_sum"}


# --help, a bad flag value and every bounded command with each of its integer
# flags at its limit + 1: over a rank limit, and over fano's cost limit
USAGE_ERRORS = [["--help"], ["orbits", "--n", "0"]] + [
    [name] + [arg for flag, spec in flags if spec is cli._POSITIVE
              for arg in (flag, str(getattr(cli, bound[1]) + 1))]
    for name, _, _, flags, bound in cli._COMMANDS if bound]


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_load_only_the_front_end(runner, argv):
    code, modules = loaded_modules(RUNNERS[runner], *argv)
    assert (code, modules) == (0 if argv == ["--help"] else 2, FRONT)


@pytest.mark.parametrize("runner", RUNNERS)
def test_orbits_loads_only_partitions(runner):
    assert loaded_modules(RUNNERS[runner], "orbits", "--n", "2") == (
        0, FRONT | {"springerq._record", "springerq.partitions"})


@pytest.mark.parametrize("runner", RUNNERS)
def test_stalks_loads_neither_springer_typec_nor_fano(runner):
    code, modules = loaded_modules(RUNNERS[runner], "stalks", "--n", "2")
    assert code == 0 and "springerq.ic_engine" in modules
    assert not modules & {"springerq.springer_typec", "springerq.fano"}


# stdlib modules that no command needs: dataclasses alone loads inspect, ast,
# dis and tokenize, and they cost every run that has no bytecode cache
HEAVY = {"dataclasses", "inspect", "typing"}
# the four benchmark commands at small sizes
BENCHMARK_ARGVS = [["stalks", "--n", "2", "--check"], ["verify", "--n-max", "2"],
                   ["orbits", "--n", "2"], ["fano", "--n", "3", "--i", "2"]]


@pytest.fixture(scope="module")
def heavy_in_help():
    """The HEAVY modules that --help loads: argparse's own, not the package's
    (none on Python 3.10-3.13)."""
    return all_modules(RUNNERS["python -m springerq"], "--help")[1] & HEAVY


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=" ".join)
def test_benchmark_commands_load_no_dataclasses_inspect_or_typing(argv, heavy_in_help):
    code, modules = all_modules(RUNNERS["python -m springerq"], *argv)
    assert code == 0 and "springerq.cli" in modules
    assert modules & HEAVY <= heavy_in_help


SOLVER = FRONT | {"springerq._record", "springerq.ic_engine", "springerq.qseries"}


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("argv", [["stalks", "--n", "2"], ["stalks", "--n", "2", "--check"],
                                  ["fano", "--n", "3", "--i", "2"]], ids=" ".join)
def test_stalks_and_fano_load_no_partitions(runner, argv):
    expected = SOLVER | ({"springerq.fano"} if argv[0] == "fano" else set())
    assert loaded_modules(RUNNERS[runner], *argv) == (0, expected)


@pytest.mark.parametrize("runner", RUNNERS)
def test_ft_table_loads_no_qseries(runner):
    assert loaded_modules(RUNNERS[runner], "ft-table", "--n", "2") == (
        0, FRONT | {"springerq._record", "springerq.partitions"})


# shutil loads bz2, lzma and fnmatch: argparse's HelpFormatter imports it to
# read the terminal width, which cli._Formatter reads without it
@pytest.fixture(scope="module")
def shutil_in_argparse():
    """Whether argparse loads shutil when its formatter is given a width
    (it does not on Python 3.11)."""
    code = _AT_EXIT + ("import argparse\n"
                       "p = argparse.ArgumentParser(\n"
                       "    formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78))\n"
                       "p.add_argument('--n', type=int)\n"
                       "p.format_help(), p.parse_args(['--n', '1'])\n")
    return "shutil" in all_modules(code)[1]


EVERY_COMMAND = [["--help"], ["orbits", "--n", "0"], ["kostka", "--shape", "2,1", "--weight", "1,1,1"],
                 ["euler", "--n", "2"], ["ft-table", "--n", "2"]] + BENCHMARK_ARGVS


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_no_command_loads_shutil(argv, shutil_in_argparse):
    code, modules = all_modules(RUNNERS["python -m springerq"], *argv)
    assert code in (0, 2) and "springerq.cli" in modules
    assert "shutil" not in modules or shutil_in_argparse


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_no_command_loads_the_json_package(argv):
    # _util takes json.dumps's encoders from the _json accelerator, as json.encoder does
    code, modules = all_modules(RUNNERS["python -m springerq"], *argv, "--format", "json")
    assert code in (0, 2) and "springerq.cli" in modules
    assert "_json" in modules and not {"json", "json.encoder"} & modules
