"""Randomized Nystrom preconditioning for variational image reconstruction."""

from .core import ImageGrid, Rng, psnr, standard_normal_matrix
from .krylov import KrylovReport, cg, pcg
from .linops import (DiagonalWeight, GroupStructure, LinearOperator,
                     blur_operator, downsample_operator, grad_operator,
                     gram_operator, hessian_operator, operator_norm_sq,
                     radon_operator, wavelet_operator)
from .prox import (BoxConstraint, mixed_norm_value, project_group_ball,
                   soft_threshold, wpm_mixed_dual, wpm_structured)
from .sketch import (NystromFactor, Preconditioner, build_preconditioner,
                     effective_dimension, nystrom_approx, nystrom_oracle_dense)
from .solvers import (IrmConfig, SolverTrace, WapgConfig,
                      half_quadratic_constants, irm_solve, update_weights,
                      wapg_solve)

__version__ = "0.1.0"
