"""Command-line front end.

Subcommands: orbits, stalks, fano, kostka, euler, ft-table, verify.  Every
subcommand takes --format {pretty,json,tsv} (default pretty).  Output is
deterministic: no timestamps, fixed row and field order.  JSON integers that
do not fit in 64 bits are written as decimal strings by _util.write_json;
Laurent-polynomial coefficients are always decimal strings.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout
closed by its reader (128 + SIGPIPE).

Imports: only argparse, the stdlib and _util at the top.  Each command, and
each verify suite, imports the computational modules it runs when it runs
(after its own refusals), so --help and usage errors load no other module.
main refuses a rank over its command's limit before the command runs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from ._util import Records, write_json, write_lines


def _cell(v) -> str:
    """Text of one tsv or pretty cell: None is empty, bools read true/false."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _output(args, doc, header, rows, pretty=None) -> None:
    """Write the command's result to stdout in args.format.

    json writes doc; tsv and pretty write header and rows, an iterable that
    is consumed only by those two formats.  pretty, when given, is the whole
    pretty text and replaces the aligned table.  Every format is written by
    _util.write_lines in writes of about _BATCH (64 KiB) characters, as its
    rows are consumed; the aligned table holds every cell for its column
    widths but never the whole text.  stdout is flushed at the end, so that
    a closed pipe shows while main can still catch it.
    """
    if args.format == "json":
        write_json(doc, sys.stdout.write)
        sys.stdout.write("\n")
    elif args.format == "tsv":
        write_lines(("\t".join(map(_cell, r)) + "\n" for r in itertools.chain([header], rows)),
                    sys.stdout.write)
    elif pretty is not None:
        sys.stdout.write(pretty)
    else:
        cells = [tuple(header)] + [tuple(map(_cell, row)) for row in rows]
        widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
        write_lines(("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n"
                     for r in cells), sys.stdout.write)
    sys.stdout.flush()


_ORBIT_FIELDS = ["partition", "dim", "codim", "has_gaps", "is_richardson",
                 "is_relevant", "ft_support", "ft_support_name"]
# orbits --n 22 lists p(45) = 89134 rows (0.4 s and 18 MB as JSON, 0.5 s and 47 MB
# as pretty, 2-vCPU VM); p(47) = 124754
MAX_ORBITS_RANK = 22


def _cmd_orbits(args) -> int:
    from .partitions import _orbit_rows
    count, rows = _orbit_rows(2 * args.n + 1)  # rows are consumed by one format only
    _output(args, {"n": args.n, "count": count, "rows": Records(_ORBIT_FIELDS, rows)},
            _ORBIT_FIELDS, rows)
    return 0


# largest accepted rank: stalks --n 42 --check takes 3.1 s as JSON and 2.9 s
# as pretty, 56-61 MB (2-vCPU VM); the solver grows about n^6.8 per rank
MAX_STALKS_RANK = 42


def _cmd_stalks(args) -> int:
    n = args.n
    from .ic_engine import GRADING_NOTE, solve_stalk_tables
    if args.check:
        _, failed = _first_failure(_suite_solver(n, first=n))
        if failed is not None:
            sys.stderr.write(f"stalks --check: {failed} disagrees with closed form\n")
            return 1
    stalks, mult = solve_stalk_tables(n)
    doc = {
        "rank": n,
        "grading": GRADING_NOTE,
        "f": (stalks.f[i].json_pairs() for i in range(n + 1)),
        "t": ((mult.t(i, j).json_pairs() for j in range(i + 1)) for i in range(1, n + 1)),
    }
    rows = itertools.chain(
        (["f", i, None, stalks.f[i]] for i in range(n + 1)),
        (["t", i, j, mult.t(i, j)] for i in range(1, n + 1) for j in range(i + 1)),
    )
    _output(args, doc, ["table", "i", "j", "poly"], rows)
    return 0


# the cost of a fano table: each of its 2i(n-i)+1 rows costs its i+1 term
# lookups plus about 4 more for writing its JSON object, and each digit of
# l_dims one more; C(2n+1, j) < (2n+1)^j and < 2^(2n+1) has at most
# min(j * digits(2n+1), n) digits (on a 2-vCPU VM, fano --n 120 --i 60 costs
# 475385 and takes about 1.0 s as JSON, fano --n 41666 --i 1 costs 499996 and
# takes about 1.4 s, fano --n 706 --i 706 costs 499853 and takes about 0.2 s)
MAX_FANO_COST = 500_000


def _cmd_fano(args) -> int:
    n, i = args.n, args.i
    cost = (2 * i * (n - i) + 1) * (i + 5) + (i + 1) * min(i * len(str(2 * n + 1)), n)
    if cost > MAX_FANO_COST:
        raise ValueError(f"fano: --n {n} --i {i} costs {cost} > MAX_FANO_COST = {MAX_FANO_COST}")
    from .fano import _l_dims, _rows
    l_dims = _l_dims(n, i)
    rows = _rows(n, i, l_dims)  # consumed by one format only
    doc = {
        "n": n,
        "i": i,
        "complex_dim": 2 * i * (n - i),
        "l_dims": l_dims,
        "rows": Records(["k", "degree", "terms", "betti"],
                        ((row.k, 2 * row.k, Records(["j", "mult"], row.terms), row.betti)
                         for row in rows)),
    }
    _output(args, doc, ["k", "degree", "betti", "terms"], ([row.k, 2 * row.k, row.betti,
            ";".join(f"{j}:{m}" for j, m in row.terms)] for row in rows))
    return 0


def _cmd_kostka(args) -> int:
    from .partitions import Partition
    from .springer_typec import kostka
    shape = Partition.parse(args.shape)
    weight = Partition.parse(args.weight)
    value = kostka(shape, weight)
    doc = {"shape": shape.serialize(), "weight": weight.serialize(), "kostka": value}
    _output(args, doc, list(doc), [doc.values()], pretty=f"{value}\n")
    return 0


# largest accepted rank: euler --n 600 takes 2.1 s and 17 MB as JSON or tsv
# and 3.1 s and 89 MB as pretty (2-vCPU VM); about n^3
MAX_EULER_RANK = 600


def _cmd_euler(args) -> int:
    from .springer_typec import euler_chi_nontrivial, euler_chi_trivial
    n = args.n
    header = ["i", "j", "trivial", "nontrivial"]
    rows = ((i, j, euler_chi_trivial(n, i, j),  # consumed by one format only
             euler_chi_nontrivial(n, i, j) if i % 2 == 0 and i >= 2 else None)
            for i in range(n + 1) for j in range(i + 1))
    _output(args, {"n": n, "rows": Records(header, rows)}, header, rows)
    return 0


# largest accepted rank: ft-table --n 1600 takes 1.6-1.9 s in every format,
# 22 MB as JSON, 17 MB as tsv and 26 MB as pretty (2-vCPU VM); about n^2
MAX_FT_TABLE_RANK = 1600


def _cmd_ft_table(args) -> int:
    from .partitions import _ft_rows
    header = ["i", "orbit", "trivial_dim", "trivial_monodromy", "nontrivial_dim",
              "nontrivial_monodromy"]
    rows = ((r.i, r.orbit.partition.serialize(), r.trivial_target_dim, r.trivial_monodromy,
             r.nontrivial_target_dim, r.nontrivial_monodromy)  # consumed by one format only
            for r in _ft_rows(args.n))
    _output(args, {"n": args.n, "rows": Records(header, rows)}, header, rows)
    return 0


# -- verify ------------------------------------------------------------------
# Each suite yields (label, passed) per case, in a fixed order; the label
# names the case as a counterexample.


def _first_failure(cases):
    """(number of cases passed before the first failure, its label or None)."""
    passed = 0
    for label, ok in cases:
        if not ok:
            return passed, label
        passed += 1
    return passed, None


def _suite_poincare(n_max):
    from .qseries import verify_sum_identity
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            yield f"n={n} i={i}", verify_sum_identity(n, i)


def _suite_solver(n_max, first=1):
    from .ic_engine import closed_form_f, closed_form_t, solve_stalk_tables
    for n in range(first, n_max + 1):
        stalks, mult = solve_stalk_tables(n)
        for i in range(n + 1):
            yield f"f n={n} i={i}", stalks.f[i] == closed_form_f(n, i)
        for i in range(1, n + 1):
            for j in range(i + 1):
                yield f"t n={n} i={i} j={j}", mult.t(i, j) == closed_form_t(n, i, j)


def _suite_kostka(n_max):
    from .partitions import Partition
    from .springer_typec import kostka, kostka_order_two_closed_form
    for n in range(1, n_max + 1):
        for i in range(n // 2 + 1):
            for j0 in range(i + 1):
                shape = Partition((2,) * (i - j0) + (1,) * (n - 2 * i))
                weight = Partition((1,) * (n - 2 * j0))
                yield (f"n={n} i={i} j0={j0}",
                       kostka(shape, weight) == kostka_order_two_closed_form(n, i, j0))


def _suite_cc(n_max):
    from .springer_typec import verify_cc_identity
    for n in range(2, n_max + 1):
        for i in range(2, n + 1, 2):
            yield f"n={n} i={i}", verify_cc_identity(n, i)


def _suite_two_power(n_max):
    from .springer_typec import verify_two_power_sum
    for n in range(1, n_max + 1):
        for j in range(n + 1):
            yield f"n={n} j={j}", verify_two_power_sum(n, j)


# fixed ordering by suite name
_SUITES = [
    ("cc-identity", _suite_cc),
    ("kostka-closed-form", _suite_kostka),
    ("poincare-identity", _suite_poincare),
    ("solver-closed-form", _suite_solver),
    ("two-power-sum", _suite_two_power),
]


# largest accepted rank: verify --n-max 34 takes 3.2 s and 33 MB (2-vCPU VM)
MAX_VERIFY_RANK = 34


def _cmd_verify(args) -> int:
    n_max = args.n_max
    results = []
    for name, suite in _SUITES:
        cases, counterexample = _first_failure(suite(n_max))
        results.append({"name": name, "passed": counterexample is None,
                        "cases": cases, "counterexample": counterexample})
    ok = all(r["passed"] for r in results)
    width = max(len(r["name"]) for r in results)
    pretty = "".join(
        f"{r['name'].ljust(width)}  PASS  ({r['cases']} cases)\n" if r["passed"] else
        f"{r['name'].ljust(width)}  FAIL  at {r['counterexample']} "
        f"({r['cases']} cases passed before failure)\n"
        for r in results
    ) + f"{'all suites passed' if ok else 'verification failed'} (n_max={n_max})\n"
    header = ["name", "passed", "cases", "counterexample"]
    _output(args, {"n_max": n_max, "ok": ok, "suites": results}, header,
            ([r[h] for h in header] for r in results), pretty=pretty)
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


_POSITIVE = dict(type=_positive_int, required=True)
_N = [("--n", _POSITIVE)]

# (name, help, function, flags, rank limit); every subcommand also takes
# --format.  A rank limit (flag, name of its constant in this module) is
# checked by main before the command runs; fano and kostka check their cost.
_COMMANDS = [
    ("orbits", "orbit table for rank n", _cmd_orbits, _N, ("--n", "MAX_ORBITS_RANK")),
    ("stalks", "stalk polynomials f_i and multiplicities T^i_j", _cmd_stalks,
     _N + [("--check", dict(action="store_true",
                            help="cross-validate against the closed forms"))],
     ("--n", "MAX_STALKS_RANK")),
    ("fano", "cohomology table of the variety of (i-1)-planes", _cmd_fano,
     _N + [("--i", _POSITIVE)], None),
    ("kostka", "Kostka number for a shape and content", _cmd_kostka,
     [("--shape", dict(required=True)), ("--weight", dict(required=True))], None),
    ("euler", "local Euler characteristics of the order-two family", _cmd_euler, _N,
     ("--n", "MAX_EULER_RANK")),
    ("ft-table", "Fourier-transform classification of the order-two family", _cmd_ft_table, _N,
     ("--n", "MAX_FT_TABLE_RANK")),
    ("verify", "run every identity suite up to a rank bound", _cmd_verify,
     [("--n-max", _POSITIVE)], ("--n-max", "MAX_VERIFY_RANK")),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="springerq",
        description="Exact orbit, stalk, Euler-characteristic and Fano tables.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, flags, limit in _COMMANDS:
        p = sub.add_parser(name, help=help_text, formatter_class=_Formatter)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=["pretty", "json", "tsv"], default="pretty")
        p.set_defaults(run=run, limit=limit)
    args = parser.parse_args(argv)
    try:
        if args.limit:  # the constant is read now, so that a test can set it
            flag, name = args.limit
            value, bound = getattr(args, flag[2:].replace("-", "_")), globals()[name]
            if value > bound:
                raise ValueError(f"{args.command}: {flag} {value} > {name} = {bound}")
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # stdout's reader left: what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
