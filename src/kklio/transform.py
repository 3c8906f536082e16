"""Construction, evaluation and numerical inversion of the KKL transform.

The transform ``T`` maps plant states into coordinates where the dynamics
are linear: ``T(f(x)) = A @ T(x) + B @ h(x)`` with ``A = gamma * blockdiag``
of user-chosen Schur blocks and ``B`` the block-diagonal stack of the input
vectors. Two evaluation modes are provided:

* ``polynomial`` -- when the dynamics are affine and the output map lies in
  the span of a monomial basis closed under composition with the dynamics,
  the coefficient matching problem is a small linear system solved exactly.
* ``series`` -- the generic truncated backward series, with the inverse
  dynamics saturated into the plant's enlarged box and the truncation length
  chosen from the geometric tail bound.

The left inverse is realized as a box-constrained multi-start Gauss-Newton
least-squares solve; it always returns the best point found together with
its residual, so callers can account for inversion quality explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .intervals import Box, inf_norm, mat_inf_norm
from .plant import PlantModel, SystemConstants
from .sampling import pair_ratio_extremum

_CTRB_RANK_RTOL = 1e-10
_RESONANCE_RTOL = 1e-12
_POLY_CHECK_TOL = 1e-10
_POLY_CHECK_POINTS = 1000
_SUP_OUTPUT_INFLATION = 1.2
_SERIES_SUP_GRID = 10000


@dataclass(frozen=True, eq=False)
class TargetSystem:
    """Per-channel target blocks ``(A_i, b_i)`` plus the scalar gain."""

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    gamma: float

    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = []
        for a_i, b_i in self.blocks:
            a_i = np.atleast_2d(np.asarray(a_i, dtype=float))
            b_i = np.atleast_1d(np.asarray(b_i, dtype=float))
            if a_i.shape[0] != a_i.shape[1] or b_i.shape != (a_i.shape[0],):
                raise ValueError("each block needs a square A_i and a matching b_i")
            if np.max(np.abs(np.linalg.eigvals(a_i))) >= 1.0:
                raise ValueError("target block is not Schur")
            ctrb = _ctrb(a_i, b_i)
            svals = np.linalg.svd(ctrb, compute_uv=False)
            if svals[-1] <= _CTRB_RANK_RTOL * svals[0]:
                raise ValueError("target block pair is not controllable")
            blocks.append((a_i, b_i))
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        object.__setattr__(self, "blocks", tuple(blocks))
        n_z = sum(a.shape[0] for a, _ in blocks)
        a_full = np.zeros((n_z, n_z))
        b_full = np.zeros((n_z, len(blocks)))
        i = 0
        for ch, (a_i, b_i) in enumerate(blocks):
            d = a_i.shape[0]
            a_full[i:i + d, i:i + d] = self.gamma * a_i
            b_full[i:i + d, ch] = b_i
            i += d
        object.__setattr__(self, "A", a_full)
        object.__setattr__(self, "B", b_full)

    @property
    def n_z(self) -> int:
        return self.A.shape[0]

    @property
    def n_y(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a, _ in self.blocks)

    @property
    def m_bar(self) -> int:
        return max(self.m)

    def block_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Max-norm sizes ``(||A_i||, ||b_i||)`` per block."""
        a = np.array([mat_inf_norm(a_i) for a_i, _ in self.blocks])
        b = np.array([inf_norm(b_i) for _, b_i in self.blocks])
        return a, b

    def c_c(self) -> float:
        """Exact lower bound on the reciprocal inverse-controllability norm."""
        worst = max(mat_inf_norm(np.linalg.inv(_ctrb(a, b))) for a, b in self.blocks)
        return 1.0 / worst


def _ctrb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cols = [b]
    for _ in range(a.shape[0] - 1):
        cols.append(a @ cols[-1])
    return np.stack(cols, axis=1)


def gamma_star(consts: SystemConstants, target: TargetSystem, cap: bool = True) -> float:
    """Largest gain for which the transform is certified Lipschitz injective.

    Three-term minimum: series convergence, backward-chain contraction, and
    positivity of the injectivity margin. With ``cap=True`` the value is
    clipped to 1, the design range of the gain.
    """
    a_norms, b_norms = target.block_norms()
    a_max = float(np.max(a_norms))
    b_max = float(np.max(b_norms))
    af = a_max * consts.c_f
    tail = float(np.max((a_norms * consts.c_f) ** np.array(target.m)))
    t1 = 1.0 / a_max
    t2 = 1.0 / af
    t3 = consts.c_c * consts.c_o / (af * consts.c_c * consts.c_o
                                    + b_max * consts.c_h * consts.c_f * tail)
    g = min(t1, t2, t3)
    return min(g, 1.0) if cap else g


def derived_constants(consts: SystemConstants, target: TargetSystem,
                      gamma: float) -> tuple[float, float, float]:
    """Closed-form ``(c_L, c_I, c)`` for a gain inside the certified range.

    ``c_L`` bounds increments of the transform, ``c_I`` is its injectivity
    margin (positive only below the uncapped ``gamma_star``), and
    ``c = 1/c_I`` bounds increments of the left inverse after scaling by
    ``gamma**(m_bar-1)``.
    """
    raw = gamma_star(consts, target, cap=False)
    if not 0.0 < gamma <= 1.0 or gamma >= raw:
        raise ValueError(
            f"injectivity not guaranteed: gamma={gamma} is not below gamma*={raw:.6g}"
        )
    a_norms, b_norms = target.block_norms()
    a_max = float(np.max(a_norms))
    b_max = float(np.max(b_norms))
    af = a_max * consts.c_f
    tail = float(np.max((a_norms * consts.c_f) ** np.array(target.m)))
    c_L = b_max * consts.c_h * consts.c_f / (1.0 - gamma * af)
    c_I = consts.c_N * (consts.c_c * consts.c_o
                        - b_max * consts.c_h * consts.c_f * gamma * tail / (1.0 - gamma * af))
    if c_I <= 0.0:
        raise ValueError("injectivity not guaranteed: margin is nonpositive")
    return c_L, c_I, 1.0 / c_I


@dataclass(frozen=True)
class InverseConfig:
    """Settings for the multi-start box-constrained least-squares inverse.

    The start set is a fixed interior lattice with ``lattice_per_axis``
    points per axis (``starts`` caps how many are used, in deterministic
    row-major order) plus the optional warm start.
    """

    box: Box
    starts: Optional[int] = None
    max_iters: int = 60
    tol: float = 1e-10
    lattice_per_axis: int = 7
    fd_step: float = 1e-6
    warm_start: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.starts is not None and self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.lattice_per_axis < 1:
            raise ValueError("lattice_per_axis must be >= 1")

    def start_points(self) -> np.ndarray:
        n = self.box.dim
        frac = (np.arange(self.lattice_per_axis) + 0.5) / self.lattice_per_axis
        axes = [self.box.lo[i] + self.box.width[i] * frac for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, n)
        if self.starts is not None:
            pts = pts[: self.starts]
        return pts

    def with_warm_start(self, x) -> "InverseConfig":
        return replace(self, warm_start=None if x is None else np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class KklTransform:
    """Evaluable transform in either polynomial or series mode.

    In series mode ``series_n`` is the truncation length, fixed when the
    transform is built; it stays ``None`` when the scaled target matrix is
    not a contraction, and evaluation then raises.
    """

    mode: str
    target: TargetSystem
    plant: PlantModel
    series_tol: float = 1e-9
    poly_coeffs: Optional[np.ndarray] = None
    basis: Optional[tuple[tuple[int, ...], ...]] = None
    series_n: Optional[int] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("series", "polynomial"):
            raise ValueError("mode must be 'series' or 'polynomial'")
        if self.mode == "polynomial":
            if self.poly_coeffs is None or self.basis is None:
                raise ValueError("polynomial mode needs coefficients and a basis")
            coeffs = np.asarray(self.poly_coeffs, dtype=float)
            if coeffs.shape != (self.target.n_z, len(self.basis)):
                raise ValueError("coefficient table shape does not match target/basis")
            object.__setattr__(self, "poly_coeffs", coeffs)
            object.__setattr__(self, "basis", tuple(tuple(e) for e in self.basis))
        else:
            object.__setattr__(self, "series_n",
                               _series_length(self.target, self.plant, self.series_tol))

    @property
    def n_z(self) -> int:
        return self.target.n_z


def eval_T(t: KklTransform, x) -> np.ndarray:
    return eval_T_poly(t, x) if t.mode == "polynomial" else eval_T_series(t, x)


def eval_T_poly(t: KklTransform, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    mono = _monomials(x, t.basis)
    return mono @ t.poly_coeffs.T


def eval_T_series(t: KklTransform, x) -> np.ndarray:
    """Truncated backward series with saturated inverse iterates.

    The truncation length satisfies a geometric tail bound at
    ``series_tol``; it requires the scaled target matrix to be a
    contraction.
    """
    if t.series_n is None:
        raise ValueError(f"scaled target matrix has norm {mat_inf_norm(t.target.A):.3g} >= 1; "
                         "series may diverge")
    x = np.asarray(x, dtype=float)
    a = t.target.A
    b = t.target.B
    acc = np.zeros(x.shape[:-1] + (t.target.n_z,))
    a_pow_b = b.copy()
    v = x
    for _ in range(t.series_n):
        v = t.plant.f_inv_clamped(v)
        hv = np.asarray(t.plant.h(v), dtype=float)
        acc = acc + np.einsum("zy,...y->...z", a_pow_b, hv)
        a_pow_b = a @ a_pow_b
    return acc


def _series_length(target: TargetSystem, plant: PlantModel, series_tol: float) -> Optional[int]:
    a_norm = mat_inf_norm(target.A)
    if a_norm >= 1.0:
        return None
    box = plant.box_x_enlarged
    per_axis = max(2, int(round(_SERIES_SUP_GRID ** (1.0 / box.dim))))
    grid = box.grid(per_axis)
    h_max = _SUP_OUTPUT_INFLATION * float(np.max(np.abs(np.asarray(plant.h(grid), dtype=float))))
    b_norm = mat_inf_norm(target.B)
    scale = b_norm * max(h_max, 1e-30) / (1.0 - a_norm)
    if scale <= series_tol:
        return 1
    n = int(math.ceil(math.log(series_tol / scale) / math.log(a_norm)))
    return max(n, 1)


def make_series_transform(plant: PlantModel, target: TargetSystem,
                          series_tol: float = 1e-9) -> KklTransform:
    return KklTransform(mode="series", target=target, plant=plant, series_tol=series_tol)


# ---------------------------------------------------------------------------
# polynomial mode: coefficient matching over a monomial basis


def solve_poly_T(plant: PlantModel, target: TargetSystem,
                 basis: Sequence[Sequence[int]]) -> np.ndarray:
    """Coefficient table of the exact polynomial transform.

    Requires affine dynamics and an output map inside the span of ``basis``;
    the basis must be closed under composition with the dynamics. Each
    target block yields a small linear system in coefficient space; a
    (near-)singular system means a resonant block eigenvalue.
    """
    basis = tuple(tuple(int(p) for p in e) for e in basis)
    if any(len(e) != plant.n_x or any(p < 0 for p in e) for e in basis):
        raise ValueError("basis exponents must be nonnegative tuples of length n_x")
    f_mat, f_off = _affine_parts(plant)
    k_mat = _composition_matrix(f_mat, f_off, basis)
    h_coeffs = _output_in_basis(plant, basis)

    n_b = len(basis)
    rows = []
    for ch, (a_i, b_i) in enumerate(target.blocks):
        m_i = a_i.shape[0]
        lhs = np.kron(np.eye(m_i), k_mat) - target.gamma * np.kron(a_i, np.eye(n_b))
        rhs = np.outer(b_i, h_coeffs[ch]).reshape(-1)
        cond = np.linalg.cond(lhs)
        if not np.isfinite(cond) or 1.0 / cond < _RESONANCE_RTOL:
            raise ValueError(
                f"resonant target eigenvalue in block {ch}: coefficient system is singular"
            )
        sol = np.linalg.solve(lhs, rhs)
        rows.append(sol.reshape(m_i, n_b))
    return np.vstack(rows)


def make_polynomial_transform(plant: PlantModel, target: TargetSystem,
                              basis: Sequence[Sequence[int]],
                              coeffs: Optional[np.ndarray] = None) -> KklTransform:
    """Build (or wrap precomputed) polynomial-mode transform and verify it.

    The linear-in-target identity is checked on sampled points of the
    invariant box at a 1e-10 tolerance.
    """
    if coeffs is None:
        coeffs = solve_poly_T(plant, target, basis)
    t = KklTransform(mode="polynomial", target=target, plant=plant,
                     poly_coeffs=coeffs, basis=tuple(tuple(e) for e in basis))
    resid = transform_residual(t, _check_points(plant.box_x))
    if resid > _POLY_CHECK_TOL:
        raise ValueError(f"polynomial transform residual {resid:.3e} exceeds {_POLY_CHECK_TOL}")
    return t


def transform_residual(t: KklTransform, pts: np.ndarray) -> float:
    """Max defect of ``T(f(x)) - A T(x) - B h(x)`` over the given points."""
    fx = np.asarray(t.plant.f(pts), dtype=float)
    lhs = eval_T(t, fx)
    rhs = eval_T(t, pts) @ t.target.A.T + np.asarray(t.plant.h(pts), dtype=float) @ t.target.B.T
    return float(np.max(np.abs(lhs - rhs)))


def _check_points(box: Box, n: int = _POLY_CHECK_POINTS) -> np.ndarray:
    return box.sample(np.random.default_rng(1189), n)


def _affine_parts(plant: PlantModel) -> tuple[np.ndarray, np.ndarray]:
    n = plant.n_x
    off = np.asarray(plant.f(np.zeros(n)), dtype=float)
    cols = [np.asarray(plant.f(e), dtype=float) - off for e in np.eye(n)]
    f_mat = np.stack(cols, axis=1)
    probe = plant.box_x.sample(np.random.default_rng(977), 8)
    err = np.max(np.abs(np.asarray(plant.f(probe), dtype=float) - (probe @ f_mat.T + off)))
    scale = 1.0 + np.max(np.abs(off)) + np.max(np.abs(f_mat))
    if err > 1e-9 * scale:
        raise ValueError("dynamics map is not affine; polynomial mode unavailable")
    return f_mat, off


def _poly_mul(p: dict, q: dict, n: int) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(ea[i] + eb[i] for i in range(n))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _composition_matrix(f_mat: np.ndarray, f_off: np.ndarray, basis) -> np.ndarray:
    """Matrix taking basis coefficients of p to those of ``p o f``."""
    n = f_mat.shape[0]
    index = {e: j for j, e in enumerate(basis)}
    k_mat = np.zeros((len(basis), len(basis)))
    lin_forms = []
    for i in range(n):
        form = {tuple(int(a == j) for a in range(n)): f_mat[i, j] for j in range(n)}
        if f_off[i] != 0.0:
            form[(0,) * n] = form.get((0,) * n, 0.0) + f_off[i]
        lin_forms.append({e: c for e, c in form.items() if c != 0.0})
    for j, e in enumerate(basis):
        poly = {(0,) * n: 1.0}
        for i, power in enumerate(e):
            for _ in range(power):
                poly = _poly_mul(poly, lin_forms[i], n)
        for mono, coeff in poly.items():
            if abs(coeff) <= 1e-14:
                continue
            if mono not in index:
                raise ValueError(
                    f"basis not closed under composition with the dynamics: "
                    f"monomial {mono} appears with coefficient {coeff:.3g}"
                )
            k_mat[index[mono], j] += coeff
    return k_mat


def _output_in_basis(plant: PlantModel, basis) -> np.ndarray:
    """Coefficients of each output channel in the basis, via probe points."""
    n_b = len(basis)
    pts = plant.box_x.sample(np.random.default_rng(353), max(3 * n_b, 16))
    vander = _monomials(pts, basis)
    hv = np.atleast_2d(np.asarray(plant.h(pts), dtype=float))
    coeffs, *_ = np.linalg.lstsq(vander, hv, rcond=None)
    err = np.max(np.abs(vander @ coeffs - hv))
    if err > 1e-9 * (1.0 + np.max(np.abs(hv))):
        raise ValueError("output map is not spanned by the basis")
    return coeffs.T


def _monomials(x: np.ndarray, basis) -> np.ndarray:
    """Basis monomials of ``x``, one column per basis exponent tuple.

    Each power ``x_i ** p`` is computed once and the products are taken in
    axis order, so the values equal the per-monomial product loop's.
    """
    powers = {(i, p): x[..., i] ** p for e in basis for i, p in enumerate(e) if p}
    out = np.ones(x.shape[:-1] + (len(basis),))
    for j, e in enumerate(basis):
        col = out[..., j]
        for i, p in enumerate(e):
            if p:
                np.multiply(col, powers[i, p], out=col)
    return out


# ---------------------------------------------------------------------------
# numerical left inverse


def invert_T(t: KklTransform, z, cfg: InverseConfig):
    """Best box-constrained preimage of ``z`` under the transform.

    Multi-start damped Gauss-Newton with finite-difference Jacobians; the
    warm start (when given) and all lattice starts iterate in one batch,
    which a start leaves once it converges or stalls. Ties between equally
    good minimizers break on smaller max-norm, then lexicographically, so
    results are deterministic. Never raises: the residual reports the fit
    quality.

    ``z`` of shape ``(n_z,)`` returns ``(x, resid)``. A stack of targets of
    shape ``(p, n_z)`` returns ``(xs, resids)`` of shapes ``(p, n_x)`` and
    ``(p,)``, each row exactly what the single-target call returns; the
    warm start is then ``None``, one point shared by every target, or one
    point per target of shape ``(p, n_x)``. All targets' starts run in the
    same batch; a target whose starts have all stopped costs nothing more.
    """
    z = np.asarray(z, dtype=float)
    n_z = t.target.n_z
    if z.shape != (n_z,) and (z.ndim != 2 or z.shape[1] != n_z):
        raise ValueError(f"z must have shape ({n_z},) or (p, {n_z})")
    zs = z.reshape(-1, n_z)
    p = len(zs)
    lattice = cfg.start_points()
    n_x = lattice.shape[1]
    starts = np.broadcast_to(lattice, (p,) + lattice.shape)
    if cfg.warm_start is not None:
        warm = np.asarray(cfg.warm_start, dtype=float)
        if warm.shape not in ((n_x,), (p, n_x)):
            raise ValueError(f"warm_start must have shape ({n_x},) or ({p}, {n_x})")
        warm = np.broadcast_to(warm, (p, n_x))
        starts = np.concatenate([warm[:, None, :], starts], axis=1)
    n_per = starts.shape[1]
    xs, rs = _gauss_newton(t, np.repeat(zs, n_per, axis=0), starts.reshape(-1, n_x), cfg)
    xs = xs.reshape(p, n_per, n_x)
    rs = rs.reshape(p, n_per)
    best = [_best_start(x, r) for x, r in zip(xs, rs)]
    x_best = xs[np.arange(p), best]
    r_best = rs[np.arange(p), best]
    if z.ndim == 1:
        return x_best[0], float(r_best[0])
    return x_best, r_best


def _best_start(xs: np.ndarray, rs: np.ndarray) -> int:
    """Index of the smallest residual; ties go to the smaller max-norm, then
    to the lexicographically smaller point, then to the earlier start."""
    return int(np.lexsort(tuple(xs.T[::-1]) + (np.abs(xs).max(axis=1), rs))[0])


_LS_ALPHAS = 0.5 ** np.arange(14)


def _gauss_newton(t: KklTransform, z: np.ndarray, starts: np.ndarray,
                  cfg: InverseConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton from every start; row ``s`` fits target ``z[s]``.

    Each iteration runs only on the active rows; a row leaves the batch once
    it converges or stalls, and the remaining rows iterate exactly as
    before. Each row's iterates do not depend on which other rows share the
    batch, as long as ``eval_T`` gives a point the same bits in any batch:
    a lone polynomial point goes through a one-row matmul (BLAS gemv) that
    rounds differently, and the probes of a lone active row are one point
    when ``n_x == 1``.
    """
    lo, hi = cfg.box.lo, cfg.box.hi
    x = np.clip(np.asarray(starts, dtype=float), lo, hi)
    n_x = x.shape[1]
    damping = 1e-12 * np.eye(n_x)
    eye = np.eye(n_x)
    tx = eval_T(t, x)
    act = np.arange(len(x))
    for _ in range(cfg.max_iters):
        if not act.size:
            break
        xa, txa, za = x[act], tx[act], z[act]
        n_s = len(act)
        res = txa - za
        f0 = (res * res).sum(axis=1)
        steps = cfg.fd_step * np.maximum(1.0, np.abs(xa))
        probes = (xa[None, :, :] + steps.T[:, :, None] * eye[:, None, :]).reshape(-1, n_x)
        tp = eval_T(t, probes).reshape(n_x, n_s, -1)
        # einsum sums in another order over a strided operand: keep the
        # (start, row, axis) layout contiguous so the sums stay bit-stable
        jac = np.ascontiguousarray(((tp - txa) / steps.T[:, :, None]).transpose(1, 2, 0))
        jtj = np.einsum("sri,srj->sij", jac, jac) + damping
        grad = np.einsum("sri,sr->si", jac, res)
        direction = -np.linalg.solve(jtj, grad[..., None])[..., 0]

        # whole backtracking ladder in one batched evaluation per iteration
        trials = np.clip(xa[None, :, :] + _LS_ALPHAS[:, None, None] * direction[None, :, :],
                         lo, hi)
        res_t = eval_T(t, trials.reshape(-1, n_x)).reshape(len(_LS_ALPHAS), n_s, -1) - za
        f_t = (res_t * res_t).sum(axis=2)
        improving = f_t < f0[None, :]
        has_step = improving.any(axis=0)
        first = np.argmax(improving, axis=0)
        rows = np.arange(n_s)
        x_next = np.where(has_step[:, None], trials[first, rows], xa)
        tx_next = np.where(has_step[:, None], res_t[first, rows] + za, txa)
        move = np.abs(x_next - xa).max(axis=1)
        x[act], tx[act] = x_next, tx_next
        resid = np.abs(tx_next - za).max(axis=1)
        done = (~has_step | (resid <= cfg.tol)
                | (move <= 1e-15 * (1.0 + np.abs(x_next).max(axis=1))))
        act = act[~done]
    resid = np.max(np.abs(tx - z), axis=1)
    return x, resid


# ---------------------------------------------------------------------------
# empirical transform constants (the route used by the bundled example)


def estimate_forward_lipschitz(t: KklTransform, samples: int = 200000, seed: int = 7) -> float:
    """Sampled increment bound of the transform on the enlarged box (x1.1)."""
    return 1.1 * pair_ratio_extremum(lambda x: eval_T(t, x), t.plant.box_x_enlarged,
                                     samples, seed)


def estimate_injectivity(t: KklTransform, samples: int = 200000, seed: int = 8) -> float:
    """Sampled injectivity margin of the transform on the enlarged box (x0.9).

    Returned in the gain-normalized form: increments of the transform are
    at least ``c_I * gamma**(m_bar-1)`` times increments of the state.
    """
    raw = pair_ratio_extremum(lambda x: eval_T(t, x), t.plant.box_x_enlarged,
                              samples, seed, minimize=True)
    if raw <= 1e-12:
        raise ValueError(f"transform is numerically non-injective: sampled ratio {raw:.3e}")
    return 0.9 * raw / t.target.gamma ** (t.target.m_bar - 1)


# ---------------------------------------------------------------------------
# plain-text coefficient tables


def save_coefficients(t: KklTransform, path) -> None:
    """Write the polynomial coefficient table (row, exponents..., value)."""
    if t.mode != "polynomial":
        raise ValueError("only polynomial transforms have a coefficient table")
    lines = ["# row " + " ".join(f"e{i+1}" for i in range(t.plant.n_x)) + " coeff"]
    for r in range(t.poly_coeffs.shape[0]):
        for e, c in zip(t.basis, t.poly_coeffs[r]):
            lines.append(f"{r} " + " ".join(str(p) for p in e) + f" {c:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_coefficients(path) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Read a coefficient table written by ``save_coefficients``."""
    rows: dict[int, dict[tuple[int, ...], float]] = {}
    basis_order: list[tuple[int, ...]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            r = int(parts[0])
            e = tuple(int(p) for p in parts[1:-1])
            c = float(parts[-1])
            rows.setdefault(r, {})[e] = c
            if e not in basis_order:
                basis_order.append(e)
    n_rows = max(rows) + 1
    coeffs = np.zeros((n_rows, len(basis_order)))
    for r, entries in rows.items():
        for j, e in enumerate(basis_order):
            coeffs[r, j] = entries.get(e, 0.0)
    return coeffs, tuple(basis_order)
