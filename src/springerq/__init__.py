"""Exact combinatorics of nilpotent orbits, IC stalk polynomials and Fano
Betti numbers for the odd split orthogonal symmetric pair.

Everything is computed in exact integer arithmetic; see the individual
modules for the conventions (in particular the stalk grading in ic_engine).

Importing the package loads none of its modules: each module, and each name
it exports here, is imported on first access (PEP 562 __getattr__).

_EXPORTS is the one list of public names: each module's __all__ is read from
it, followed by the few names only the module exports (qseries: ZERO, ONE, Q,
one_minus_q, sum_of_products; ic_engine: GRADING_NOTE; springer_typec:
MAX_KOSTKA_COST).
"""

import importlib

__version__ = "0.1.0"

# the exported names of each module; the modules themselves are exported too
_EXPORTS = {
    "partitions": """Partition OrbitLabel BranchMove ROW_REMOVAL ROW_SPLIT partitions_of
        conjugate dominance_leq closure_contains dim_centralizer orbit_codim orbit_dim
        has_gaps induced_orbit is_relevant_full is_relevant_parabolic is_richardson
        richardson_label branch_moves resolution_fiber_dim SupportInfo ft_support_info
        ft_support_flag FourierTableRow order_two_partition ft_table""",
    "qseries": """LaurentPoly gaussian_binomial og_poincare verify_sum_identity
        eval_at_one""",
    "ic_engine": """StalkTable MultiplicityTable solve_stalk_tables closed_form_f
        closed_form_t ic_stalk_poly fake_degree_poly""",
    "springer_typec": """Bipartition kostka kostka_order_two_closed_form
        standard_tableaux_count springer_label bipartition_dim euler_chi_trivial
        euler_chi_nontrivial verify_cc_identity verify_two_power_sum""",
    "fano": """FanoRow FanoCohomology fano_multiplicities fano_betti_poly
        fano_betti_poly_from_multiplicities fano_lines_table""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in [module, *names.split()]}
__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
