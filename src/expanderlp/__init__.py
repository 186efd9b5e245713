"""LP decoding of expander codes over small finite fields.

The pieces, bottom to top: exact GF(q) arithmetic and linear algebra;
local codes on the vertices of a regular bipartite graph; the global
expander code; a dense two-phase simplex core; the decoding LP with
integrality-certified rounding; dual witnesses built by peeling or by
edge orientation; a brute-force oracle; and a Monte Carlo harness with a
CLI wrapper.
"""

from .errors import (DomainError, EnumerationCapError, ExpanderLPError,
                     GraphConstructionError, InternalInvariantError,
                     NotIntegralError, NoValidThetaError, NumericError,
                     WitnessUnavailableError)
from .gf import GF
from .gflinalg import mat_mul, mat_vec, null_space, rank, rref
from .linear_code import (LocalCode, generalized_reed_solomon, repetition,
                          single_parity_check)
from .tanner_graph import (SpectralInfo, TannerGraph, complete_bipartite,
                           cycle_graph, random_regular_bipartite)
from .expander_code import (BoundReport, DistanceBound, ExpanderCode,
                            binary_entropy, binary_entropy_inverse,
                            check_word, compute_theta,
                            correctable_fraction_core,
                            correctable_fraction_orientation,
                            distance_bound_eq1, format_word,
                            hamming_distance, parse_word, sqrt_fraction,
                            table_fraction)
from .lp_core import LpProblem, LpSolution, solve
from .lp_decoder import (DecodeResult, decode, decode_many, build_reduced,
                         cost_from_received, embed, unembed)
from .certificate import (CertifyResult, DualWitness, ErrorCore, PeelingTrace,
                          WitnessCheck, build_witness_from_orientation,
                          build_witness_from_peeling, check_witness,
                          find_error_core, find_witness, peel)
from .orientation import (OrientationFailure, OrientedEdgeSet, orient,
                          verify_orientation)
from .ml_oracle import (OracleResult, ScanReport, exhaustive_agreement_scan,
                        ml_decode)
from .harness import (ExperimentConfig, SweepResult, TrialRecord,
                      bounds_report, format_tables, resolve_code,
                      resolve_graph, resolve_instance, run_sweep,
                      sample_error_pattern)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
