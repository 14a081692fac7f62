"""Exact Darboux factorizations of Bessel-type operators and certified
bispectral operator pairs.

Everything is computed over the rationals, with structural equality as the
only notion of correctness: factorizations are certified by exact operator
identities, series are used only on conservatively tracked windows.  Orbit
conditions at eps^i lam are imposed and certified at lam alone, since the
wave function depends on xz only.
"""

from .bessel import (BesselIndex, bessel_op, bessel_poly, bessel_wave,
                     indicial_poly, wave_coeffs, wave_jet_at,
                     zero_exponent_basis)
from .darboux import (AtPointGroup, AtZeroGroup, DarbouxCertificate,
                      KernelSpec, banded_rows, build_certificate, certify,
                      cleared_coefficients, monomial_kernel, validate_spec)
from .errors import (BispectralError, CertificationError, DomainError,
                     InconsistentSpecError, RankDeficiencyError, ShapeError,
                     SpecInvalidError, TruncationError, UnsupportedInputError,
                     UsageError, VerificationError)
from .involution import (BispectralPair, SpectralAlgebraReport,
                         bessel_plane_report, beta_prime,
                         closed_form_monomial, involute_P, involute_Q,
                         make_pair, spectral_algebra, verify_pair)
from .poly import Poly, RationalFunction
from .quasi import ExpSeries, QuasiPolynomial, WaveSeries
from .scalars import (Cyclotomic, cyclotomic_polynomial, euler_phi,
                      format_rational, parse_rational)
from .weyl import DEL, DFORM, DiffOp

__version__ = "0.1.0"
