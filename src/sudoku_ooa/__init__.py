"""Ordered orthogonal arrays OOA(4,s,2,q) from linear sudoku solutions.

The package builds families of mutually orthogonal sudoku solutions of order
q^2 from flags of subspaces in F^4 over GF(q), checks the strong-orthogonality
condition system both algebraically and combinatorially, assembles the
corresponding 2s x q^4 banded arrays, and verifies the ordered-orthogonal-array
property by exhaustive brute force.
"""

from .families import (
    FamilySpec,
    InvalidS,
    SOutOfRange,
    big_family,
    construct_family,
    max_guaranteed_s,
    select_S,
    substrong_family,
)
from .files import (
    ParseError,
    array_from_text,
    array_to_text,
    flags_from_text,
    flags_to_text,
    grid_to_text,
)
from .gf import (
    DivisionByZero,
    Field,
    NotPrimePower,
    find_generator,
    make_field,
    multiplicative_order,
)
from .linalg import (
    SizeUnsupported,
    Subspace,
    det,
    intersect,
    subspace_from,
    trivial_intersection,
)
from .ooa import (
    ArrayTooLarge,
    BandedArray,
    GridCountZero,
    MalformedArray,
    NotTopJustified,
    VerifyResult,
    assemble,
    classify,
    duplicate_finder,
    top_justified_sets,
    verify,
)
from .strong import (
    ConditionReport,
    ConditionResult,
    NotMutuallyOrthogonal,
    check_algebraic,
    check_combinatorial,
    condition_index_tuples,
)
from .sudoku import (
    DimensionMismatch,
    Flag,
    FlagData,
    Grid,
    InvalidFlagData,
    are_orthogonal,
    generate,
    subspace_gamma,
)

__version__ = "0.1.0"
