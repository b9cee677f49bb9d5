"""q-ary perfect codes from affine-group permutations, with verification."""

from .linalg import (
    DimensionMismatch,
    FieldContext,
    ParseError,
    is_invertible,
    nullspace_basis,
    rank,
)
from .hamming import (
    HammingPair,
    build_hamming_pair,
    stacked_parity,
)
from .affine import (
    CheckResult,
    PermTable,
    RegularSubgroup,
    identity_perm,
    iterate_perms,
    linear_perm,
    perm_inverse,
    series_group,
    series_perm,
    shear_group,
    shear_swap_perm,
    verify_automorphism,
    verify_regular_subgroup,
)
from .codes import (
    CodeHandle,
    RankBasis,
    build_code,
    contains,
    contains_rows,
    distension,
    distension_oracle,
    permuted_check,
    rank_basis,
    rank_closed_form,
)
from .verify import (
    PropelinearCertificate,
    VerifyReport,
    audit_rank_basis,
    check_additivity,
    check_perfect,
    check_propelinear_certificate,
    rank_by_elimination,
    translation_certificate,
)

__version__ = "0.1.0"
