"""Instability certificates for representations of SL(n).

Given a representation built from the standard one by duals, exterior and
symmetric powers and tensor products, and an unstable vector v (one whose
orbit closure reaches 0), this package finds the fastest shrinking geodesic
direction / optimal destabilizing one-parameter subgroup and synthesizes a
verifiable lower bound

    log ||rho(g) v|| >= sum_j alpha_j log ||rho_j(g) w_j|| + c

over the fundamental representations rho_j, with nonnegative rational
alpha_j, then validates it by sampling.
"""

from .cartan import (CartanVector, Cocharacter, SimpleSystem, chi_decompose,
                     dominant_order, fundamental_weights)
from .errors import (CertificateError, DimensionError, InstabError,
                     NonFiniteError, ParseError, StableVectorError,
                     TorusStableError, ZeroVectorError)
from .instability import (CertifyOptions, DominanceCert, FlatShrinkData,
                          KempfData, MinNormCert, ShrinkGeodesicResult,
                          Verdict, VerifyReport,
                          cartan_box_sample, cert_from_dict, cert_to_dict,
                          dominance_certificate, dumps_cert,
                          fastest_shrinking_geodesic, flat_shrink_data,
                          is_unstable, loads_cert, min_norm_point, torus_kempf,
                          verify_dominance, LIKELY_STABLE, NUMERIC_UNSTABLE, TORUS_CERTIFIED)
from .reps import (Dual, RepSpec, Representation, Standard, Sym, Tensor,
                   Wedge, act, active_weights, basis_labels, build_rep,
                   highest_weight_vector, log_rep_norm, m_value, moment_map,
                   parse_rep_spec, rep_norm, weight_components)
from .symspace import (BusemannEstimate, GeodesicRay, busemann_formula,
                       busemann_limit, distance, exp_sym, geodesic, haar_so,
                       log_flag_norms, midpoint, project, ray_from_cartan)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
