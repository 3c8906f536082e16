"""Ready-made plant/observer stacks.

The bundled demo plant, named ``oscillator-siE``, is the planar harmonic
oscillator discretized by semi-implicit Euler with rate ``tau``:

    x1 <- x1 - tau*x2
    x2 <- (1 - tau^2)*x2 + tau*x1
    y   = x1^2 - x2^2 + x1 + x2 + w

Its dynamics are linear with exact inverse and unit determinant, solutions
of interest remain in ``[-2, 2]^2``, and backward orbits of that box stay
inside ``[-3, 3]^2``, which is used as the saturation and inversion box.

A run uses only the empirically estimated transform constants
(``SystemConstants``): the forward Lipschitz bound of the transform and its
sampled injectivity margin on the enlarged box, both estimated at the gain in
use. Set-inversion recovery needs neither; the margin sizes only the paper's
box, which it keeps as a diagnostic. The bound pads the initial transform
bounds, and widens the disturbed ones only for a state that set inversion
does not track (``observer.step``). The plant's dynamics are linear, so
the plant derives their matrix (``PlantModel.f_linear``), which gives set
inversion its prior and the disturbed bounds their mean-value widening.
Smaller gains weaken the transform's injectivity faster than the nominal
``gamma**(m_bar-1)`` law, so each gain gets its own honestly sampled
margin.
The closed-form route certifies only gains far below the ones of interest;
``closed_form_constants`` estimates its inputs on demand, and the
``constants`` CLI command prints both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coords import CanonicalBlock, CoordChangeSeq, build_coord_change
from .intervals import Box
from .observer import ObserverConfig
from .plant import PlantModel, estimate_c_o, estimate_lipschitz
from .transform import (ClosedFormConstants, InverseConfig, KklTransform, SystemConstants,
                        TargetSystem, estimate_forward_lipschitz, estimate_injectivity,
                        gamma_star, make_polynomial_transform)

OSCILLATOR = "oscillator-siE"
PRESETS = (OSCILLATOR,)

DEFAULT_TAU = 0.1
DEFAULT_LAMBDAS = (0.1, 0.2, 0.3, 0.4)
DEFAULT_X0 = (1.0, 0.0)
DEFAULT_X0_HALFWIDTH = 0.5
POLY_BASIS = ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1))

ESTIMATION_SEED = 2313
LIPSCHITZ_SAMPLES = 40000
C_O_SAMPLES = 100000
TRANSFORM_SAMPLES = 400000

# Regression pins for the default seed/sample sizes (see test_presets).
PINNED_PLANT_CONSTANTS = {
    "c_f": 1.2100000000005995,
    "c_h": 15.212646174151967,
    "c_o": 0.0010738271372633828,
    "c_c": 0.0007499999999999997,
    "gamma_star_raw": 7.97303902279075e-07,
}
PINNED_TRANSFORM_CONSTANTS = {
    1.0: {"c_L": 23.814544350926486, "c_I": 0.001159863434165706, "c": 862.1704681286928},
    0.7: {"c_L": 20.332279848266282, "c_I": 0.0013109925831541944, "c": 762.7808218365668},
}


def oscillator_maps(tau: float):
    t2 = tau * tau

    # columns go into np.empty, cheaper than np.stack: the series transform
    # calls f_inv once per term
    def f(x):
        x, out = np.asarray(x, dtype=float), np.empty(np.shape(x))
        out[..., 0] = x[..., 0] - tau * x[..., 1]
        out[..., 1] = (1.0 - t2) * x[..., 1] + tau * x[..., 0]
        return out

    def f_inv(x):
        x, out = np.asarray(x, dtype=float), np.empty(np.shape(x))
        out[..., 0] = (1.0 - t2) * x[..., 0] + tau * x[..., 1]
        out[..., 1] = -tau * x[..., 0] + x[..., 1]
        return out

    def h(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return (x1 * x1 - x2 * x2 + x1 + x2)[..., None]

    return f, f_inv, h


def make_oscillator_plant(tau: float = DEFAULT_TAU, x0_box: Optional[Box] = None) -> PlantModel:
    f, f_inv, h = oscillator_maps(tau)
    if x0_box is None:
        x0 = np.array(DEFAULT_X0)
        x0_box = Box(x0 - DEFAULT_X0_HALFWIDTH, x0 + DEFAULT_X0_HALFWIDTH)
    return PlantModel(
        n_x=2, n_y=1, f=f, f_inv=f_inv, h=h,
        box_x=Box([-2.0, -2.0], [2.0, 2.0]),
        box_x0=x0_box,
        box_x_enlarged=Box([-3.0, -3.0], [3.0, 3.0]),
    )


def siE_noise() -> tuple:
    """Measurement noise of the demo run and its per-step bounds.

    The published envelope ``0.5 / k^2`` is undefined at ``k = 0``; the
    guard ``max(k, 1)`` is used there.
    """

    def w(k: int) -> np.ndarray:
        return np.array([0.2 * math.cos(20.0 * k)])

    def w_hi(k: int) -> np.ndarray:
        return np.array([max(0.2 * math.cos(20.0 * k), 0.5 / max(k, 1) ** 2)])

    def w_lo(k: int) -> np.ndarray:
        return np.array([min(0.2 * math.cos(20.0 * k), 0.5 / max(k, 1) ** 2)])

    return w, w_lo, w_hi


def siE_disturbance() -> tuple:
    """Bounded state disturbance (non-resonant frequencies, amplitude 0.01) and its envelope."""

    def d(k: int) -> np.ndarray:
        return 0.01 * np.array([math.sin(1.7 * k + 0.3), math.cos(2.3 * k)])

    bound = 0.01 * np.ones(2)
    return d, (lambda k: -bound), (lambda k: bound)


@dataclass(frozen=True, eq=False)
class Bundle:
    """Everything needed to run an observer on a preset plant, and its estimation seed."""

    name: str
    plant: PlantModel
    target: TargetSystem
    transform: KklTransform
    coord: CoordChangeSeq
    consts: SystemConstants
    observer_cfg: ObserverConfig
    seed: int


def build_oscillator(gamma: float = 1.0, tau: float = DEFAULT_TAU,
                     seed: int = ESTIMATION_SEED, x0_box: Optional[Box] = None) -> Bundle:
    """Assemble the demo plant, transform, frames, constants and observer.

    The bundle's constants are the ones a run uses, ``c_L`` and ``c_I``,
    sampled at ``seed + 3`` and ``seed + 4``; ``closed_form_constants``
    estimates the closed-form ones on demand. ``tau`` must be finite and
    positive: at ``tau = 0`` the plant is the identity map, whose outputs
    cannot tell its states apart. ``seed`` must be nonnegative.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    plant = make_oscillator_plant(tau, x0_box)
    blocks = tuple(CanonicalBlock.positive_real(l) for l in DEFAULT_LAMBDAS)
    target = TargetSystem(channels=((blocks, np.ones(len(blocks))),), gamma=gamma)
    transform = make_polynomial_transform(plant, target, POLY_BASIS)
    coord = build_coord_change(blocks, gamma)
    consts = SystemConstants(
        c_L=estimate_forward_lipschitz(transform, samples=TRANSFORM_SAMPLES, seed=seed + 3),
        c_I=estimate_injectivity(transform, samples=TRANSFORM_SAMPLES, seed=seed + 4),
        m=target.m)
    observer_cfg = ObserverConfig(transform=transform, coord=coord, consts=consts,
                                  gamma=gamma,
                                  inverse_cfg=InverseConfig(box=plant.box_x_enlarged))
    return Bundle(name=OSCILLATOR, plant=plant, target=target, transform=transform,
                  coord=coord, consts=consts, observer_cfg=observer_cfg, seed=seed)


def closed_form_constants(bundle: Bundle) -> tuple[ClosedFormConstants, float]:
    """The inputs of ``gamma_star`` for the bundle, and the uncapped ``gamma_star``.

    ``c_f`` and ``c_h`` are drawn at the bundle's own estimation seed and
    ``c_o`` at ``seed + 2``, with the sample counts they always had;
    ``c_c`` is exact.
    """
    plant, seed = bundle.plant, bundle.seed
    c_f, c_h = estimate_lipschitz(plant, samples=LIPSCHITZ_SAMPLES, seed=seed)
    c_o = estimate_c_o(plant, bundle.target.m, samples=C_O_SAMPLES, seed=seed + 2)
    consts = ClosedFormConstants(c_f=c_f, c_h=c_h, c_o=c_o, c_c=bundle.target.c_c())
    return consts, gamma_star(consts, bundle.target)


def build_preset(name: str, **kwargs) -> Bundle:
    if name != OSCILLATOR:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return build_oscillator(**kwargs)
