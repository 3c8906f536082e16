"""Guaranteed interval state estimation for nonlinear discrete-time systems.

The observer transforms a plant into coordinates where the dynamics are
linear and Schur, propagates upper/lower bounds there through a nonnegative
constant matrix, and maps the bounds back to the state: by set inversion of
the transform when it is quadratic, by a Lipschitz-injective numerical
inverse otherwise.
"""

from .coords import CanonicalBlock, CoordChangeSeq, assemble_target_matrix, build_coord_change
from .intervals import Box, inf_norm, interval_image, mat_inf_norm, split_neg, split_pos
from .observer import (EmptyRecoveryError, ObserverConfig, ObserverState, init_observer,
                       recover_x_bounds, step)
from .plant import (PlantModel, PlantTrace, distinguishability_map, estimate_c_o,
                    estimate_lipschitz, simulate_plant)
from .transform import (ClosedFormConstants, InverseConfig, KklTransform, SystemConstants,
                        TargetSystem, estimate_forward_lipschitz, estimate_injectivity, eval_T,
                        eval_T_poly, eval_T_series, gamma_star, invert_T,
                        make_polynomial_transform, make_series_transform, solve_poly_T,
                        transform_residual)

__version__ = "0.1.0"

__all__ = [
    "Box", "split_pos", "split_neg", "interval_image", "inf_norm", "mat_inf_norm",
    "PlantModel", "PlantTrace",
    "simulate_plant", "estimate_lipschitz", "estimate_c_o", "distinguishability_map",
    "TargetSystem", "KklTransform", "InverseConfig", "SystemConstants", "ClosedFormConstants",
    "gamma_star", "solve_poly_T", "make_polynomial_transform",
    "make_series_transform", "eval_T", "eval_T_poly", "eval_T_series", "invert_T",
    "transform_residual", "estimate_forward_lipschitz", "estimate_injectivity",
    "CanonicalBlock", "CoordChangeSeq", "build_coord_change", "assemble_target_matrix",
    "ObserverConfig", "ObserverState", "init_observer", "step",
    "recover_x_bounds", "EmptyRecoveryError",
]
