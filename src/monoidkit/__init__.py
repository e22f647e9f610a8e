"""Computing with positively presented monoids.

Word-problem decision by rewriting closure, divisibility and common-multiple
lattices, fundamental/Garside element verification, bounded cancellativity
search, the g(m,n) family with its division laws, and group word equality
through delta^j * r forms.
"""

from .errors import (
    CapExceededError,
    InjectivityNotEstablishedError,
    MonoidError,
    NonHomogeneousError,
    NotFundamentalError,
    ParseError,
)
from .presentation import (
    Presentation,
    Relation,
    Word,
    expand_cyclic,
    fixture,
    fixture_names,
    format_word,
    parse_presentation,
    parse_word,
    presentation_digest,
    serialize_presentation,
)
from .rewrite import (
    DEFAULT_CAP,
    EquivClass,
    canonical,
    equal,
    equivalence_class,
    neighbors,
)
from .divisibility import DivisionResult, McmReport, cm_r, left_divides, mcm_r, right_divides
from .garside import (
    FundamentalCertificate,
    GarsideReport,
    atoms,
    verify_fundamental,
    verify_garside,
)
from .cancel import (
    CancellationFailure,
    add_relation,
    search_failures,
)
from .gmn import (
    CASES,
    DivisionLawReport,
    DivisionLawViolation,
    GmnContext,
    build_gmn,
    check_division_law,
    delta_quotient,
    in_rm,
    split_tail_run,
)
from .groupwords import (
    SignedWord,
    center_scan,
    free_reduce,
    group_equal,
    parse_signed_word,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "InjectivityNotEstablishedError",
    "MonoidError",
    "NonHomogeneousError",
    "NotFundamentalError",
    "ParseError",
    "Presentation",
    "Relation",
    "Word",
    "expand_cyclic",
    "fixture",
    "fixture_names",
    "format_word",
    "parse_presentation",
    "parse_word",
    "presentation_digest",
    "serialize_presentation",
    "DEFAULT_CAP",
    "EquivClass",
    "canonical",
    "equal",
    "equivalence_class",
    "neighbors",
    "DivisionResult",
    "McmReport",
    "cm_r",
    "left_divides",
    "mcm_r",
    "right_divides",
    "FundamentalCertificate",
    "GarsideReport",
    "atoms",
    "verify_fundamental",
    "verify_garside",
    "CancellationFailure",
    "add_relation",
    "search_failures",
    "CASES",
    "DivisionLawReport",
    "DivisionLawViolation",
    "GmnContext",
    "build_gmn",
    "check_division_law",
    "delta_quotient",
    "in_rm",
    "split_tail_run",
    "SignedWord",
    "center_scan",
    "free_reduce",
    "group_equal",
    "parse_signed_word",
]
