"""Command-line front end.

Subcommands: orbits, stalks, fano, kostka, euler, ft-table, verify.  Every
subcommand takes --format {pretty,json,tsv} (default pretty), which _util
writes (write_json, write_tsv, write_pretty; fano's JSON text is fano's own)
with no timestamps and fixed row and field order.  This module keeps the
commands, the parser, main and console_main, the process's entry point.

Exit codes: 0 success, 1 verification failure, 2 usage error, 74 stdout
cannot be written (EX_IOERR: a full disk, a closed fd), 141 stdout closed by
its reader (128 + SIGPIPE).

Imports: only argparse, the stdlib and _util at the top.  Each command
imports the computational modules it runs when it runs (after its own
refusals), so --help and usage errors load no other module.
main refuses a rank, or fano's cost, over its command's MAX_* constant
before the command runs.
"""

import argparse
import errno
import itertools
import os
import sys

from ._util import Records, write_json, write_lines, write_pretty, write_tsv


def _output(args, doc, table=None, **texts) -> None:
    """Write the command's result to stdout in args.format: texts[args.format],
    when given, is the whole text as an iterable of strings; else json writes
    doc, and tsv and pretty write table, a Records that defaults to
    doc["rows"].  stdout is flushed at the end, so that a closed pipe or a
    full disk shows while main can still catch it.
    """
    if sys.stdout is None:  # started with fd 1 closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    write = sys.stdout.write
    if args.format in texts:
        write_lines(texts[args.format], write)
    elif args.format == "json":
        write_json(doc, write)
        write("\n")
    else:
        (write_tsv if args.format == "tsv" else write_pretty)(doc["rows"] if table is None else table, write)
    sys.stdout.flush()


_ORBIT_FIELDS = ["partition", "dim", "codim", "has_gaps", "is_richardson",
                 "is_relevant", "ft_support", "ft_support_name"]
# orbits --n 22 lists p(45) = 89134 rows (cold medians, 2-vCPU VM: 0.17 s and 18 MB as
# JSON, 0.16 s and 18 MB as tsv, 0.22 s and 25 MB as pretty); p(47) = 124754
MAX_ORBITS_RANK = 22


def _cmd_orbits(args) -> int:
    from .partitions import _orbit_rows
    count, table, blocks = _orbit_rows(2 * args.n + 1)
    _output(args, {"n": args.n, "count": count, "rows": Records(_ORBIT_FIELDS, blocks, table)})
    return 0


# largest accepted rank: stalks --n 42 takes 0.27-0.35 s and 25-29 MB peak RSS
# from the closed forms, and 1.4-1.5 s and 37-41 MB with --check, whose solver
# grows about n^7 per rank (pretty and JSON, cold, 2-vCPU VM, Python 3.11)
MAX_STALKS_RANK = 42


def _cmd_stalks(args) -> int:
    n = args.n
    from .ic_engine import GRADING_NOTE, _solver_cases, closed_form_f, closed_form_t
    if args.check:
        _, failed = _first_failure(_solver_cases(n))
        if failed is not None:
            sys.stderr.write(f"stalks --check: {failed} disagrees with closed form\n")
            return 1
    doc = {"rank": n, "grading": GRADING_NOTE,
           "f": (closed_form_f(n, i).json_pairs() for i in range(n + 1)),
           "t": ((closed_form_t(n, i, j).json_pairs() for j in range(i + 1))
                 for i in range(1, n + 1))}
    _output(args, doc, Records(["table", "i", "j", "poly"], itertools.chain(
        (["f", i, None, closed_form_f(n, i)] for i in range(n + 1)),
        (["t", i, j, closed_form_t(n, i, j)] for i in range(1, n + 1) for j in range(i + 1)))))
    return 0


# the cost of a fano table: each of its 2i(n-i)+1 rows costs its i+1 term
# lookups plus about 4 more for writing its JSON object, and each digit of
# l_dims one more; C(2n+1, j) < (2n+1)^j and < 2^(2n+1) has at most
# min(j * digits(2n+1), n) digits (cold, 2-vCPU VM: fano --n 120 --i 60 costs
# 475385 and takes about 0.2 s as JSON, fano --n 41666 --i 1 costs 499996 and
# takes about 0.24 s, fano --n 706 --i 706 costs 499853 and takes about 0.09 s)
MAX_FANO_COST = 500_000


def _fano_cost(args):
    """The bound measure of fano: (its refusal text, the table's cost)."""
    n, i = args.n, args.i
    cost = (2 * i * (n - i) + 1) * (i + 5) + (i + 1) * min(i * len(str(2 * n + 1)), n)
    return f"--n {n} --i {i} costs {cost}", cost


def _cmd_fano(args) -> int:
    n, i = args.n, args.i
    from .fano import _json_text, _l_dims, _rows
    l_dims = _l_dims(n, i)
    _output(args, None, Records(["k", "degree", "betti", "terms"], (
        [k, 2 * k, betti, ";".join(f"{j}:{m}" for j, m in terms)]
        for k, terms, betti in _rows(n, i, l_dims))), json=_json_text(n, i, l_dims))
    return 0


def _cmd_kostka(args) -> int:
    from .partitions import Partition
    from .springer_typec import kostka
    shape, weight = Partition.parse(args.shape), Partition.parse(args.weight)
    value = kostka(shape, weight)
    doc = {"shape": shape.serialize(), "weight": weight.serialize(), "kostka": value}
    _output(args, doc, Records(doc, [doc.values()]), pretty=[f"{value}\n"])
    return 0


# largest accepted rank: euler --n 600 takes 1.4-1.5 s and 15 MB as JSON or tsv
# and 1.7 s and 86 MB as pretty (cold, 2-vCPU VM); about n^3
MAX_EULER_RANK = 600


def _cmd_euler(args) -> int:
    from .springer_typec import euler_chi_nontrivial, euler_chi_trivial
    n = args.n
    rows = ((i, j, euler_chi_trivial(n, i, j),
             euler_chi_nontrivial(n, i, j) if i % 2 == 0 and i >= 2 else None)
            for i in range(n + 1) for j in range(i + 1))
    _output(args, {"n": n, "rows": Records(["i", "j", "trivial", "nontrivial"], rows)})
    return 0


# largest accepted rank: ft-table --n 1600 takes 1.2 s in every format, 21 MB
# as JSON, 15 MB as tsv and 25 MB as pretty (cold, 2-vCPU VM); about n^2
MAX_FT_TABLE_RANK = 1600


def _cmd_ft_table(args) -> int:
    from .partitions import _ft_rows
    rows = ((r.i, r.orbit.partition.serialize(), r.trivial_target_dim, r.trivial_monodromy,
             r.nontrivial_target_dim, r.nontrivial_monodromy) for r in _ft_rows(args.n))
    _output(args, {"n": args.n, "rows": Records(["i", "orbit", "trivial_dim", "trivial_monodromy",
                                                 "nontrivial_dim", "nontrivial_monodromy"], rows)})
    return 0


# -- verify ------------------------------------------------------------------
# Each suite lives in the module that states its identity and gives the cases
# of one rank as (label, passed), in a fixed order; the label names the case
# as a counterexample.


def _first_failure(cases):
    """(number of cases passed before the first failure, its label or None)."""
    passed = 0
    for label, ok in cases:
        if not ok:
            return passed, label
        passed += 1
    return passed, None


# largest accepted rank: verify --n-max 34 takes 1.3 s and 31 MB (cold, 2-vCPU VM)
MAX_VERIFY_RANK = 34


def _cmd_verify(args) -> int:
    from . import ic_engine, qseries, springer_typec
    n_max = args.n_max
    results = []
    for name, suite in [  # fixed ordering by suite name
        ("cc-identity", springer_typec._cc_cases),
        ("kostka-closed-form", springer_typec._kostka_cases),
        ("poincare-identity", qseries._poincare_cases),
        ("solver-closed-form", ic_engine._solver_cases),
        ("two-power-sum", springer_typec._two_power_cases),
    ]:
        cases, label = _first_failure(case for n in range(1, n_max + 1) for case in suite(n))
        results.append((name, label is None, cases, label))
    ok = all(passed for _, passed, _, _ in results)
    width = max(len(name) for name, *_ in results)
    pretty = "".join(
        f"{name.ljust(width)}  PASS  ({cases} cases)\n" if passed else
        f"{name.ljust(width)}  FAIL  at {label} ({cases} cases passed before failure)\n"
        for name, passed, cases, label in results
    ) + f"{'all suites passed' if ok else 'verification failed'} (n_max={n_max})\n"
    suites = Records(["name", "passed", "cases", "counterexample"], results)
    _output(args, {"n_max": n_max, "ok": ok, "suites": suites}, suites, pretty=[pretty])
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for --n, --i and --n-max: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rank(flag):
    """The bound measure of a rank flag: args -> (its refusal text, the rank)."""
    dest = flag[2:].replace("-", "_")
    return lambda args: (f"{flag} {getattr(args, dest)}", getattr(args, dest))


_POSITIVE = dict(type=_positive_int, required=True)
_N = [("--n", _POSITIVE)]

# (name, help, function, flags, bound); every subcommand also takes --format.
# A bound (measure, name of its constant in this module) is checked by main
# before the command runs; kostka's cost is checked by springer_typec.kostka.
_COMMANDS = [
    ("orbits", "orbit table for rank n", _cmd_orbits, _N, (_rank("--n"), "MAX_ORBITS_RANK")),
    ("stalks", "stalks f_i and multiplicities T^i_j from closed forms", _cmd_stalks,
     _N + [("--check", dict(action="store_true",
                            help="compare the solver with the closed forms before printing"))],
     (_rank("--n"), "MAX_STALKS_RANK")),
    ("fano", "cohomology table of the variety of (i-1)-planes", _cmd_fano,
     _N + [("--i", _POSITIVE)], (_fano_cost, "MAX_FANO_COST")),
    ("kostka", "Kostka number for a shape and content", _cmd_kostka,
     [("--shape", dict(required=True)), ("--weight", dict(required=True))], None),
    ("euler", "local Euler characteristics of the order-two family", _cmd_euler, _N,
     (_rank("--n"), "MAX_EULER_RANK")),
    ("ft-table", "Fourier-transform classification of the order-two family", _cmd_ft_table, _N,
     (_rank("--n"), "MAX_FT_TABLE_RANK")),
    ("verify", "run every identity suite up to a rank bound", _cmd_verify,
     [("--n-max", _POSITIVE)], (_rank("--n-max"), "MAX_VERIFY_RANK")),
]


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter at the width it reads from shutil.get_terminal_size,
    read here without importing shutil (and with it bz2, lzma and fnmatch):
    COLUMNS, else the terminal's width, else 80; minus 2."""

    def __init__(self, prog):
        try:
            width = int(os.environ.get("COLUMNS", 0))
        except ValueError:
            width = 0
        if width <= 0:
            try:
                width = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
            except (AttributeError, ValueError, OSError):
                width = 80
        super().__init__(prog, width=width - 2)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help raises OSError when it cannot be written
    (argparse's own _print_message drops the error, and --help exits 0)."""

    def print_help(self, file=None):
        file = file or sys.stdout
        if file is None:  # started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        file.write(self.format_help())
        file.flush()


def main(argv=None) -> int:
    parser = _Parser(
        prog="springerq",
        description="Exact orbit, stalk, Euler-characteristic and Fano tables.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, flags, bound in _COMMANDS:
        p = sub.add_parser(name, help=help_text, formatter_class=_Formatter)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=["pretty", "json", "tsv"], default="pretty")
        p.set_defaults(run=run, bound=bound)
    try:
        args = parser.parse_args(argv)
        if args.bound:  # the constant is read now, so that a test can set it
            measure, name = args.bound
            (text, value), limit = measure(args), globals()[name]
            if value > limit:
                raise ValueError(f"{args.command}: {text} > {name} = {limit}")
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:  # stdout's reader left (141), or it cannot take the output (74)
        broken = isinstance(exc, BrokenPipeError)
        if not broken:
            sys.stderr.write(f"springerq: error: cannot write output: {exc.strerror}\n")
        if sys.stdout is not None:  # what is still buffered goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141 if broken else 74


def console_main():
    """Run main and end the process with its exit code: the entry point of
    `python -m springerq` and of the `springerq` script.  stdout and stderr
    are flushed, and then os._exit skips the interpreter's teardown, so that
    no atexit handler runs.  Any other exception ends the process as usual."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
