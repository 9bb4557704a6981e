"""Exact 2-class groups along 2-power cyclotomic towers.

Classify an odd squarefree d into one of the families with a closed
layer-by-layer description, read the exponent r off a certified 2-Sylow
basis of an imaginary quadratic class group, and emit exact group shapes
and Iwasawa invariants for every layer of the towers over Q(sqrt(d), i)
and Q(sqrt(-d)).  Full class groups come from exhaustive reduced-form
enumeration.
"""

from .arith import OddSquarefree, factor_squarefree, is_prime
from .classifier import (
    Analysis,
    FamilyTag,
    GroupShape,
    IwasawaInvariants,
    Prediction,
    RBound,
    analyze,
    classify,
    cross_check,
    exponent_r_corollary,
    exponent_r_oracle,
    iwasawa_invariants,
    predict,
)
from .diophantine import (
    KaplanParams,
    LegendreSolution,
    PellRepresentation,
    enumerate_legendre_solutions,
    solve_kaplan,
    solve_legendre,
    solve_pell_rep,
    williams_criterion,
    williams_witness,
)
from .qforms import (
    ClassGroupStructure,
    Discriminant,
    FormClass,
    class_group,
    class_group_sweep,
    compose,
    discriminant_of,
    genus_two_rank,
    reduce_form,
    reduced_forms,
)
from .symbols import jacobi, quartic_2_reciprocal, quartic_residue

__version__ = "1.0.0"
