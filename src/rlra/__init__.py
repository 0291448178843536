"""Randomized low-rank matrix factorizations with strict pass budgets.

Fixed-rank drivers (randsvd, randlu, powerlu), a fixed-precision driver with
adaptive rank search (powerlu_fp; powerlu_fp_restarting retries it
with a wider sketch), and a single-pass LU for streamed matrices.  The
pivoted-LU elimination runs on LAPACK getrf (rlra.backend).  No pivot
decides a rank: the fixed-rank drivers return factors at any k, with
error at rounding level once k reaches rank(A), and powerlu_fp's energy
scan alone chooses its rank.
"""

from .accessors import DenseAccessor, InstrumentedAccessor, SparseAccessor, as_accessor
from .backend import BACKEND
from .core import apply_col_perm, apply_row_perm, fro_norm, gaussian, rel_fro_error
from .errors import (
    IllPosedPseudoinverse,
    NonFiniteInput,
    NotConverged,
    RlraError,
    Unsatisfiable,
)
from .fixedprec import (
    AdaptiveOutcome,
    PrecisionParams,
    adaptive_rank,
    powerlu_fp,
    powerlu_fp_restarting,
)
from .fixedrank import (
    LowRankLU,
    LowRankSVD,
    powerlu,
    randlu,
    randlu_noreorth,
    randsvd,
    reconstruct,
)
from .kernels import eqr, plu
from .matgen import gen_decay, gen_sparse, oracle_error
from .rangefinder import general_power_basis_v, power_basis_lu_l, power_basis_q
from .singlepass import (
    DenseColumnStream,
    MatrixMarketColumnStream,
    RlraFileColumnStream,
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
    "IllPosedPseudoinverse",
    "InstrumentedAccessor",
    "LowRankLU",
    "LowRankSVD",
    "MatrixMarketColumnStream",
    "NonFiniteInput",
    "NotConverged",
    "PrecisionParams",
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
    "powerlu_fp_restarting",
    "randlu",
    "randlu_noreorth",
    "randsvd",
    "reconstruct",
    "rel_fro_error",
    "single_pass_lu",
    "single_pass_lu_rowmajor",
    "stream_sketch",
]
