"""Exact arithmetic for real almost Abelian Lie groups.

A group here is R^d x| R, described by a multiplicity function
assigning Jordan blocks to eigenvalues.  The package computes
exponential maps and their failure, centers and torsion, faithful
matrix representations, normal forms of discrete central subgroups,
automorphism actions, and closedness of connected subgroups in
quotients, all over the field Q(tau) with tau standing for 2*pi.
"""

from importlib import import_module as _import_module

from .autos import (
    Automorphism,
    GenericAut,
    HeisAut,
    InnerAut,
    apply_aut,
    compose,
    differential,
    identity_aut,
    inner_aut,
    invert,
    is_heisenberg_extension,
    validate_aut,
)
from .errors import (
    DegenerateDatum,
    ExactnessUnavailable,
    InvalidAutomorphism,
    NotCentral,
    NoWitness,
    UnsupportedLattice,
)
from .expmap import (
    CenterDescription,
    TorsionDescription,
    center,
    central_log,
    dilation_conjugator,
    dilation_group,
    e2_witness,
    exp_map,
    group_inverse,
    group_mul,
    is_central,
    is_exponential,
    phi_matrix,
    torsion,
)
from .jordan import (
    AlgebraElement,
    GroupElement,
    MultiplicityFunction,
    algebra_element,
    build_jordan,
    commutator,
    group_element,
    group_identity,
    multiplicity_function,
)
from .lattices import (
    DiscreteCentralSubgroup,
    has_faithful_quotient_rep,
    lattice_equal,
    normalize_subgroup,
    preserves_lattice,
    quotient_iso_certificate,
    reduce_generators,
    related_by_aut_check,
    related_by_aut_search,
    subgroup_from_data,
    validate_subgroup,
)
from .reps import (
    algebra_rep,
    decompose,
    group_rep_G,
    group_rep_GI,
    group_rep_GII,
    is_simply_connected_G,
    quotient_chart,
    quotient_faithful_rep,
)
from .scalars import TAU, GaussRational, TauScalar, parse_gauss, parse_rational, parse_tau
from .specfile import SpecError, SpecFile, parse_spec_file, parse_spec_text
from .subgroups import (
    ConnectedSubgroupSpec,
    bbar,
    is_abelian_subalgebra,
    is_quotient_subgroup_closed,
    lift_subgroup,
    membership,
    split_lattice_through,
    validate_subspace,
)

__version__ = "0.1.0"

# The float stack loads numpy and scipy; a module of it is imported on
# first use of one of its names, so that exact work never pays for it.
# The numeric names are the float forms of exact functions that take no
# mode argument.
_FLOAT_NAMES = dict.fromkeys(
    ("OracleReport", "antihermitian_probe", "dense_expm", "exp_crosscheck", "injectivity_probe"),
    "oracle",
) | dict.fromkeys(("group_inverse_numeric", "membership_numeric", "quotient_rep_numeric"), "numeric")


def __getattr__(name):
    if name in _FLOAT_NAMES:
        return getattr(_import_module(f".{_FLOAT_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_FLOAT_NAMES)
