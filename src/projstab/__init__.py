"""Exact-arithmetic stability analysis for projective polynomial maps.

The package works with tuples of n+1 homogeneous degree-m polynomials over
the rationals, viewed as self-maps of P^n.  It certifies the morphism
property by exact resultants, solves the diagonal stabilizer system,
detects block-triangular structure, constructs destabilizing one-parameter
subgroups with their limit maps, and recursively splits block-triangular
morphisms into restriction and quotient pieces.
"""

from .errors import (BadPrime, BudgetExceeded, DegreeMismatch,
                     DimensionMismatch, InvalidBlock, InvalidBox,
                     NotAMorphism, NotASolution, ParseError, ProjstabError,
                     SingularMatrix, SizeLimit, WrongDimension, ZeroMap)
from .poly import (HomogeneousPoly, LinearChange, MultiIndex, ProjectiveMap,
                   apply_linear_change, compose, evaluate, iterate, make_map)
from .weights import (OnePS, WeightProfile, vertex_coverage, weight,
                      weight_profile)
from .resultant import (ProbeReport, default_probe_primes, ff_zero_probe,
                        is_morphism, macaulay_resultant, sylvester_resultant)
from .stability import (BlockAnalysis, BlockStructure, ClassificationReport,
                        HyperplanePartition, LimitResult, MorphismObstruction,
                        StabilizerSolution, StabilizerSpace,
                        block_from_stabilizer, block_to_1ps, classify,
                        detect_blocks, hyperplane_partition, limit_map,
                        stabilizer_space)
from .decompose import (DecompositionTree, SplitPair, decompose_fully,
                        split_once, splitting_types_all_blocks,
                        verify_preimage)
from .documents import (document_to_map, dumps_canonical, format_fraction,
                        load_map_file, loads_map, map_to_document,
                        parse_fraction)
from .figures import build_figure_data
from .verify import run_verification_suite

__version__ = "0.1.0"
