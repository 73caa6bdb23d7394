"""orenaka: exact computation with graded Ore extensions of Koszul
AS-regular algebras.

Given A = T(V)/(R) with a graded automorphism sigma and a degree-one
sigma-derivation delta, the package certifies the Koszul and AS data of
A, computes the homological determinant and the Nakayama automorphism
of A, builds sequence pairs and the sigma-divergence of delta, and from
them the Nakayama automorphism and twisted superpotential of the Ore
extension B = A[z; sigma, delta].  All arithmetic is exact over Q.
"""

from .errors import (
    AutomorphismCheckFailedError,
    CasePreconditionError,
    CertificationError,
    EngineInvariantError,
    FormMismatchError,
    LeftImageEscapeError,
    NoSolutionError,
    NotAdmissibleError,
    NotASRegularError,
    NotInHatWError,
    NotInvertibleError,
    NonUniqueTwistError,
    OrenakaError,
    TwistFailureError,
    UnknownParameterError,
)
from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    Tensor,
    scalar,
    scalar_str,
    subspace_intersect,
)
from .quadratic import KoszulCertificate, QuadraticAlgebra
from .morphisms import (
    DerivationLift,
    GradedAutomorphism,
    admissible_lift_space,
    check_automorphism,
    extend_derivation,
    hdet,
    identity_automorphism,
    nakayama_of_A,
    nakayama_of_A_dim2_closed_form,
    twist_solve,
)
from .ore import (
    DivergenceResult,
    OreReport,
    SequencePair,
    build_sequence_pair,
    derivation_quotient_relations,
    divergence,
    nakayama_of_B,
    ore_relations,
    twisted_superpotential_hat,
)
from .catalog import (
    CASES,
    CYVerdict,
    SolutionInstance,
    antisymmetrizer_tensor,
    cy_classifier_dim2,
    dim2_delta_rl_closed_form,
    dim2_hdet,
    dim2_instance_oracle,
    dim2_nakayama_oracle,
    dim2_relation_matrix,
    enumerate_solution,
    gamma_images,
    gamma_of_images,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    polynomial_divergence_oracle,
    r_basis_tensor,
    random_admissible_automorphism,
    random_admissible_derivation,
    random_case_params,
)

__version__ = "0.1.0"
