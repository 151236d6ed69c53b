"""Exact certificates for entwining structures, entwined modules and
coalgebra-Galois extensions at finite dimension.

All arithmetic is exact (rationals or a prime field); every certificate is
the solution of an explicit linear system and is re-verified against its
defining identities before it is handed out.
"""

from .fields import Field, GF, QQ
from .linalg import (AffineSolutionSet, LinMap, QuotientModule, Subspace,
                     kernel_image, kron, solve_affine)
from .structures import (Algebra, CheckReport, Coalgebra, dual_swap,
                         quotient_coalgebra, verify_algebra, verify_coalgebra)
from .entwining import (Entwining, EntwiningMorphism, counit_morphism,
                        dual_entwining, make_entwining, twist_entwining,
                        unit_morphism, verify_entwining, verify_morphism)
from .entmod import (EntwinedModule, adjunction_maps, cotensor, fixed_part,
                     standard_module, tensor_over_A, verify_entwined_module)
from .galois import (Coextension, GaloisExtension, build_coextension,
                     build_galois, copointed_grouplike, cotranslation_map,
                     fixed_subalgebra, pointed_kappa)
from .witness import (MorphismWitness, Witness, WitnessKind, check_witness,
                      nu_from_lambda, solve_witness)
from .separability import (CoseparabilityCertificate, SeparabilityCertificate,
                           SplitCertificate, StrongCertificate, StrongOutcome,
                           check_coseparable, check_separable, check_split,
                           check_strongly_separable, separability_from_integral)
from .hochschild import (Bimodule, RelativeComplex, cohomology_dim,
                         regular_bimodule, relative_complex)
from .catalog import CatalogEntry, make_example
from .errors import (CheckFailure, DomainError, EntwineError, GaloisError,
                     InconsistencyError, InputError)

__version__ = "0.1.0"
