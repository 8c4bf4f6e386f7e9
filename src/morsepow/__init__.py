"""morsepow: minimal free resolutions of powers of square-free monomial
ideals of projective dimension one, built from an explicit homogeneous
acyclic matching on the Taylor complex, with brute-force verification
oracles for every desk-scale claim."""

from .errors import (
    DuplicateGenerator,
    EmptyComplementFacet,
    EmptyFace,
    InvalidJointChoice,
    LengthMismatch,
    MorsepowError,
    NotInSupport,
    NotMinimalGenerating,
    NotProjectiveDimensionOne,
    NotQuasiForest,
    NotSquarefree,
    ParseError,
    TooLarge,
    VerificationFailed,
)
from .monomials import (
    ONE,
    Monomial,
    Variables,
    divides,
    format_monomial,
    is_squarefree,
    lcm,
    mul,
    parse_generators,
    parse_monomial,
    squarefree_part,
)
from .complexes import (
    SimplicialComplex,
    complement,
    facet_complex,
    free_vertices,
    is_leaf_order,
    leaf_joints,
    prefix_joints,
    quasi_forest_order,
)
from .ordering import (
    OrderedGenerators,
    ResolutionTree,
    check_pd1,
    order_generators,
    resolution_tree,
)
from .powers import (
    NEG_INF,
    PowerBasis,
    colex_key,
    descent_family,
    last_disagreement,
    move_many,
    move_to_joint,
    power_vectors,
    support,
    uniqueness_check,
    weak_compositions,
)
from .matching import (
    CRITICAL,
    DOWN,
    UP,
    FaceClasses,
    TaylorMatching,
    is_matching,
    verify_matching_acyclic,
    verify_matching_homogeneous,
)
from .morse import CriticalCell, GradientPath, MorseComplex
from .resolution import (
    BettiTable,
    ChainComplex,
    betti,
    betti_closed_form,
    build_resolution,
    dstab,
    pd_computed,
    pd_formula,
    pd_sequence,
    strand_degrees,
    taylor_betti,
    verify_d2,
    verify_minimality,
    verify_strand_acyclicity,
    verify_strands,
)

__version__ = "0.1.0"
