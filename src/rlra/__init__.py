"""Randomized low-rank matrix factorizations with strict pass budgets.

Fixed-rank drivers (randsvd, randlu, powerlu), a fixed-precision driver with
blocked adaptive rank search (powerlu_fp), and a single-pass LU for streamed
matrices.  The pivoted-LU elimination runs on LAPACK getrf, with an exact
unblocked elimination for sketches with dependent columns (rlra.backend).
"""

from .accessors import DenseAccessor, InstrumentedAccessor, SparseAccessor, as_accessor
from .backend import BACKEND
from .core import apply_col_perm, apply_row_perm, fro_norm, gaussian, rel_fro_error
from .errors import (
    IllConditionedSolve,
    IllPosedPseudoinverse,
    NonFiniteInput,
    NotConverged,
    RankCollapse,
    RlraError,
    Unsatisfiable,
)
from .fixedprec import (
    AdaptiveOutcome,
    PrecisionParams,
    adaptive_rank,
    powerlu_fp,
    restart_policy,
)
from .fixedrank import (
    LowRankLU,
    LowRankSVD,
    powerlu,
    randlu,
    randlu_noreorth,
    randsvd,
    range_agreement,
    reconstruct,
)
from .kernels import eqr, plu, spec_norm, tsvd
from .matgen import gen_decay, gen_sparse, oracle_error
from .rangefinder import general_power_basis_v, power_basis_lu_l, power_basis_q
from .singlepass import (
    DenseColumnStream,
    MatrixMarketColumnStream,
    RlraFileColumnStream,
    single_pass_baseline_2011,
    single_pass_lu,
    single_pass_lu_rowmajor,
    stream_sketch,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "AdaptiveOutcome",
    "DenseAccessor",
    "DenseColumnStream",
    "IllConditionedSolve",
    "IllPosedPseudoinverse",
    "InstrumentedAccessor",
    "LowRankLU",
    "LowRankSVD",
    "MatrixMarketColumnStream",
    "NonFiniteInput",
    "NotConverged",
    "PrecisionParams",
    "RankCollapse",
    "RlraError",
    "RlraFileColumnStream",
    "SparseAccessor",
    "Unsatisfiable",
    "adaptive_rank",
    "apply_col_perm",
    "apply_row_perm",
    "as_accessor",
    "eqr",
    "fro_norm",
    "gaussian",
    "gen_decay",
    "gen_sparse",
    "general_power_basis_v",
    "oracle_error",
    "plu",
    "power_basis_lu_l",
    "power_basis_q",
    "powerlu",
    "powerlu_fp",
    "randlu",
    "randlu_noreorth",
    "randsvd",
    "range_agreement",
    "reconstruct",
    "rel_fro_error",
    "restart_policy",
    "single_pass_baseline_2011",
    "single_pass_lu",
    "single_pass_lu_rowmajor",
    "spec_norm",
    "stream_sketch",
    "tsvd",
]
