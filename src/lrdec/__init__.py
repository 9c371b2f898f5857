"""Low-rank deconvolution.

Decomposes an N-order signal into a sum of small convolutional filters
applied to rank-R factored activation tensors, solved mode by mode in the
DFT domain, with an l1/ADMM path, an l2 closed-form path, and a masked
variant for tensor completion.
"""

from .convmodel import Dictionary, SpectralOperator, forward_model
from .io import (FormatError, generate_mask, read_dictionary, read_image,
                 read_mask, read_tensor, write_dictionary, write_image,
                 write_mask, write_tensor)
from .metrics import CompressionStats, compression_ratio, mse, psnr
from .solver import (AdmmState, SolveReport, SolverConfig, lrd_fit,
                     lrd_fit_masked, solve_mode_admm, solve_mode_l2)
from .synth import make_activations, make_filters, make_problem, smooth_low_rank
from .tensor import (KruskalTensor, build_q, fold, khatri_rao,
                     kruskal_reconstruct, unfold)
from .transform import dft_factor, dft_nd

__version__ = "0.1.0"

__all__ = [
    "AdmmState",
    "CompressionStats",
    "Dictionary",
    "FormatError",
    "KruskalTensor",
    "SolveReport",
    "SolverConfig",
    "SpectralOperator",
    "build_q",
    "compression_ratio",
    "dft_factor",
    "dft_nd",
    "fold",
    "forward_model",
    "generate_mask",
    "khatri_rao",
    "kruskal_reconstruct",
    "lrd_fit",
    "lrd_fit_masked",
    "make_activations",
    "make_filters",
    "make_problem",
    "mse",
    "psnr",
    "read_dictionary",
    "read_image",
    "read_mask",
    "read_tensor",
    "smooth_low_rank",
    "solve_mode_admm",
    "solve_mode_l2",
    "unfold",
    "write_dictionary",
    "write_image",
    "write_mask",
    "write_tensor",
]
