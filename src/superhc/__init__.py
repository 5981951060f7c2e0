"""Exact symbolic toolkit for symmetric superpairs.

Lie superalgebras by structure constants, PBW calculus in the enveloping
algebra, restricted root systems, the Harish-Chandra projection with its
rho shift, and the invariant rings attached to odd restricted roots --
everything over exact rational scalars.
"""

from .apoly import APoly
from .builders import double_with_flip, gl12, matrix_superalgebra, osp12, sl2
from .catalog import (CATALOG, Analysis, NoCertificate, NotEvenType,
                      group_type_pair, roots_report, verify_certificate,
                      verify_main_theorem)
from .harish import (GeneratorsMissK, InvariantBasis, IwasawaContext,
                     OrderNotIwasawa, gr_restriction, invariants_up_to_degree,
                     verify_exact_sequence)
from .liesuper import (LieSuperalgebra, MixedAlgebras, MissingForm,
                       MissingInvolution, SuperVector, centralizer,
                       theta_eigenspaces, verify_algebra)
from .linalg import (CommutationFailure, IrrationalSpectrum, NotSemisimple,
                     ScalarMatrix, kernel, nullspace, rank,
                     simultaneous_eigenspaces)
from .pairs import (CentralizerTooLarge, DegenerateFormOnA, DirectionOnWall,
                    NotAbelian, NotInEvenP, RestrictedRootSystem,
                    SymmetricPair, WeylGroup, a_perp_in_p, build_pair,
                    choose_positive_system, even_weyl_group, iwasawa_check,
                    restricted_roots, rho)
from .pbw import UEA, SymElement, UEAElement
from .rings import (ANISOTROPIC, ISOTROPIC, BadIsoClass, InconsistentRelations,
                    OddRootDatum, RankOneModel, build_rank_one_model,
                    coefficient_aNk, filtered_dimension, generators,
                    membership_I, membership_J, odd_root_data, ring_conditions)
from .scalars import scalar_from_string, scalar_to_string

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
