"""Construction, evaluation and numerical inversion of the KKL transform.

The transform ``T`` maps plant states into coordinates where the dynamics
are linear: ``T(f(x)) = A @ T(x) + B @ h(x)`` with ``A = gamma * blockdiag``
of user-chosen canonical blocks (``coords.CanonicalBlock``, the blocks the
coordinate frames are built from) and ``B`` the block-diagonal stack of the
input vectors. ``KklTransform`` is the one place a transform is made, and
its basis picks the mode:

* ``polynomial`` -- when a monomial basis is closed under composition with
  the dynamics and spans the output map, whatever the form of either map,
  both are fitted on the basis from probe points, the coefficient matching
  problem is a small linear system, and the solution is checked against the
  identity before any use.
* ``series`` (no basis) -- the generic truncated backward series, with the
  inverse dynamics saturated into the plant's enlarged box and the
  truncation length chosen from the geometric tail bound; an evaluation
  calls the output map once, on the whole backward orbit.

The left inverse is realized as a box-constrained multi-start Gauss-Newton
least-squares solve; it always returns the best point found together with
its residual, so callers can account for inversion quality explicitly. Its
Jacobian is exact in polynomial mode (a table of derivative monomials built
with the transform) and a forward difference in series mode; a start stops
once it meets the target or once its Gauss-Newton model promises less than
the rounding of its sum of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coords import CanonicalBlock, assemble_target_matrix
from .intervals import Box, inf_norm, mat_inf_norm
from .plant import PlantModel
from .sampling import pair_ratio_extremum

_CTRB_RANK_RTOL = 1e-10
_RESONANCE_RTOL = 1e-12
_POLY_CHECK_TOL = 1e-10
_POLY_CHECK_POINTS = 1000
_SUP_OUTPUT_INFLATION = 1.2
_SERIES_SUP_GRID = 10000

# Gauss-Newton inversion: lattice starts per axis, iteration cap, residual
# tolerance, series-mode finite-difference step relative to max(1, |x|), and
# the model decrease, relative to the sum of squares, below which a start stops
_LATTICE_PER_AXIS = 7
_MAX_ITERS = 60
_TOL = 1e-10
_FD_STEP = 1e-6
_STOP_DECREASE = 16 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TargetSystem:
    """Per-channel ``(blocks, b_i)``: canonical blocks and input vector, plus the gain.

    The rest is derived: ``pairs`` holds the unscaled ``(A_i, b_i)``, ``A`` is
    ``gamma * blockdiag`` of ``blocks`` (all channels' blocks, the sequence the
    frames are built from) and ``B`` stacks the ``b_i``.
    """

    channels: tuple[tuple[tuple[CanonicalBlock, ...], np.ndarray], ...]
    gamma: float

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)
    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        channels = tuple((tuple(blocks), np.atleast_1d(np.asarray(b_i, dtype=float)))
                         for blocks, b_i in self.channels)
        pairs = []
        for blocks, b_i in channels:
            if not blocks or not all(isinstance(b, CanonicalBlock) for b in blocks):
                raise ValueError("each channel needs one or more CanonicalBlocks")
            a_i = assemble_target_matrix(blocks, 1.0)
            if b_i.shape != (a_i.shape[0],):
                raise ValueError("each channel needs a b_i matching its blocks' dimension")
            svals = np.linalg.svd(_ctrb(a_i, b_i), compute_uv=False)
            if svals[-1] <= _CTRB_RANK_RTOL * svals[0]:
                raise ValueError("target block pair is not controllable")
            pairs.append((a_i, b_i))
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "A", assemble_target_matrix(self.blocks, self.gamma))
        b_full = np.zeros((self.n_z, len(pairs)))
        rows = np.cumsum((0,) + self.m)
        for ch, (_, b_i) in enumerate(pairs):
            b_full[rows[ch]:rows[ch + 1], ch] = b_i
        object.__setattr__(self, "B", b_full)

    @property
    def blocks(self) -> tuple[CanonicalBlock, ...]:
        return tuple(b for blocks, _ in self.channels for b in blocks)

    @property
    def n_z(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a, _ in self.pairs)

    @property
    def m_bar(self) -> int:
        return max(self.m)

    def c_c(self) -> float:
        """Exact lower bound on the reciprocal inverse-controllability norm."""
        worst = max(mat_inf_norm(np.linalg.inv(_ctrb(a, b))) for a, b in self.pairs)
        return 1.0 / worst


def _ctrb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cols = [b]
    for _ in range(a.shape[0] - 1):
        cols.append(a @ cols[-1])
    return np.stack(cols, axis=1)


def _require_positive(consts, names) -> None:
    for name in names:
        # NaN compares false, so it fails here too
        if not getattr(consts, name) > 0.0:
            raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class SystemConstants:
    """The transform constants a run uses, at the target's orders ``m``.

    ``c_L`` bounds the increments of the transform on the enlarged box and
    ``c_I`` is its injectivity margin there, in the gain-normalized form of
    ``estimate_injectivity``; ``c`` follows from it.
    """

    c_L: float
    c_I: float
    m: tuple[int, ...]

    def __post_init__(self):
        _require_positive(self, ("c_L", "c_I"))
        if not self.m or not all(mi >= 1 for mi in self.m):
            raise ValueError(f"orders m must all be >= 1, got {self.m!r}")
        object.__setattr__(self, "m", tuple(int(mi) for mi in self.m))

    @property
    def m_bar(self) -> int:
        return max(self.m)

    @property
    def c(self) -> float:
        """Inverse-Lipschitz constant of the transform, ``1 / c_I``."""
        return 1.0 / self.c_I


@dataclass(frozen=True)
class ClosedFormConstants:
    """The plant and target constants that ``gamma_star`` reads.

    ``c_f`` and ``c_h`` bound the increments of the inverse dynamics and the
    output map, ``c_o`` is the injectivity modulus of the backward
    distinguishability map at the target's orders, and ``c_c`` bounds the
    inverse controllability matrices of the target blocks from below
    (``TargetSystem.c_c``).
    """

    c_f: float
    c_h: float
    c_o: float
    c_c: float

    def __post_init__(self):
        _require_positive(self, ("c_f", "c_h", "c_o", "c_c"))


def gamma_star(consts: ClosedFormConstants, target: TargetSystem) -> float:
    """Largest gain for which the transform is certified Lipschitz injective.

    Three-term minimum: series convergence, backward-chain contraction, and
    positivity of the injectivity margin, with the norms taken per
    ``(A_i, b_i)``. It may exceed 1, the top of the design range of the
    gain.
    """
    a_norms = np.array([mat_inf_norm(a_i) for a_i, _ in target.pairs])
    b_norms = np.array([inf_norm(b_i) for _, b_i in target.pairs])
    a_max = float(np.max(a_norms))
    b_max = float(np.max(b_norms))
    af = a_max * consts.c_f
    tail = float(np.max((a_norms * consts.c_f) ** np.array(target.m)))
    t3 = consts.c_c * consts.c_o / (af * consts.c_c * consts.c_o
                                    + b_max * consts.c_h * consts.c_f * tail)
    return min(1.0 / a_max, 1.0 / af, t3)


@dataclass(frozen=True)
class InverseConfig:
    """The box of the multi-start box-constrained least-squares inverse.

    ``start_points`` is the fixed, read-only interior lattice of
    ``_LATTICE_PER_AXIS`` points per axis (cell centres, row-major), built
    with the config; ``invert_T`` adds the warm start.
    """

    box: Box
    start_points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.box.dim
        frac = (np.arange(_LATTICE_PER_AXIS) + 0.5) / _LATTICE_PER_AXIS
        axes = [self.box.lo[i] + self.box.width[i] * frac for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        lattice = np.stack(mesh, axis=-1).reshape(-1, n)
        lattice.setflags(write=False)
        object.__setattr__(self, "start_points", lattice)


@dataclass(frozen=True, eq=False)
class KklTransform:
    """The transform of ``plant`` into ``target`` coordinates; the basis picks the mode.

    With a monomial ``basis`` the constructor solves the coefficient table
    (``solve_poly_T``), builds the Jacobian table (``jac_basis``, the
    derivative monomials, and ``jac_coeffs``, ``(len(jac_basis), n_z * n_x)``;
    see ``jacobian_poly``) and checks ``T(f(x)) = A T(x) + B h(x)`` on sampled
    points of the invariant box. Without one, ``series_n``, the series length,
    is fixed at the ``series_tol`` tail bound, ``series_table`` stacks the
    ``(series_n, n_z, n_y)`` terms ``A^j B``, and building raises when the
    scaled target matrix is not a contraction. The target needs one channel
    per plant output, and ``series_tol`` must be finite and positive; the
    table and ``mode`` cannot be passed in.
    """

    target: TargetSystem
    plant: PlantModel
    basis: Optional[tuple[tuple[int, ...], ...]] = None
    series_tol: float = 1e-9
    mode: str = field(init=False)
    poly_coeffs: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    series_n: Optional[int] = field(init=False, default=None, repr=False)
    series_table: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    jac_basis: Optional[tuple[tuple[int, ...], ...]] = field(init=False, default=None, repr=False)
    jac_coeffs: Optional[np.ndarray] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if len(self.target.pairs) != self.plant.n_y:
            raise ValueError(f"target has {len(self.target.pairs)} output channels, "
                             f"the plant has n_y={self.plant.n_y}")
        if not (math.isfinite(self.series_tol) and self.series_tol > 0.0):
            raise ValueError(f"series_tol must be finite and positive, got {self.series_tol!r}")
        if self.basis is None:
            table = _series_table(self.target, self.plant, self.series_tol)
            object.__setattr__(self, "mode", "series")
            object.__setattr__(self, "series_n", len(table))
            object.__setattr__(self, "series_table", table)
            return
        coeffs = solve_poly_T(self.plant, self.target, self.basis)
        basis = tuple(tuple(int(p) for p in e) for e in self.basis)
        jac_basis, jac_coeffs = _jacobian_table(basis, coeffs, self.plant.n_x)
        object.__setattr__(self, "mode", "polynomial")
        object.__setattr__(self, "poly_coeffs", coeffs)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "jac_basis", jac_basis)
        object.__setattr__(self, "jac_coeffs", jac_coeffs)
        pts = self.plant.box_x.sample(np.random.default_rng(1189), _POLY_CHECK_POINTS)
        resid = transform_residual(self, pts)
        if resid > _POLY_CHECK_TOL:
            raise ValueError(f"polynomial transform residual {resid:.3e} exceeds {_POLY_CHECK_TOL}")


def eval_T(t: KklTransform, x) -> np.ndarray:
    return eval_T_poly(t, x) if t.mode == "polynomial" else eval_T_series(t, x)


def eval_T_poly(t: KklTransform, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    mono = _monomials(x, t.basis)
    return mono @ t.poly_coeffs.T


def jacobian_poly(t: KklTransform, x) -> np.ndarray:
    """Exact Jacobian of a polynomial transform, shape ``x.shape[:-1] + (n_z, n_x)``.

    One pass over the derivative monomials and one product with the table.
    The product is an ``einsum``, not a matmul: a lone point's matmul goes to
    BLAS gemv, which rounds differently, and each point must get the same
    bits in any batch.
    """
    x = np.asarray(x, dtype=float)
    mono = _monomials(x, t.jac_basis)
    jac = np.einsum("...k,kq->...q", mono, t.jac_coeffs)
    return jac.reshape(x.shape[:-1] + (t.target.n_z, x.shape[-1]))


def _jacobian_table(basis, coeffs: np.ndarray, n_x: int):
    """Derivative monomials of ``basis`` and the ``(K, n_z * n_x)`` table of ``J``.

    ``d x^e / d x_i = e_i x^(e - u_i)``, so column ``r * n_x + i`` of the
    table holds ``e_i * coeffs[r, j]`` in the row of the monomial
    ``e_j - u_i``. The basis exponents are distinct (``solve_poly_T`` checks
    it), so no two basis monomials share that row and column.
    """
    derivs = [(e[:i] + (p - 1,) + e[i + 1:], i, p * coeffs[:, j])
              for j, e in enumerate(basis) for i, p in enumerate(e) if p]
    jac_basis = tuple(dict.fromkeys(d for d, _, _ in derivs))
    n_z = coeffs.shape[0]
    table = np.zeros((len(jac_basis), n_z, n_x))
    for d, i, col in derivs:
        table[jac_basis.index(d), :, i] = col
    return jac_basis, table.reshape(len(jac_basis), n_z * n_x)


def eval_T_series(t: KklTransform, x) -> np.ndarray:
    """Truncated backward series ``sum_j A^j B h(x_j)`` over the saturated backward orbit.

    The orbit is walked once (``PlantModel.backward_orbit``), ``h`` is called
    once on its ``(series_n, ..., n_x)`` stack, and the terms, contracted with
    ``series_table``, are summed in order of ``j``. The length satisfies a
    geometric tail bound at ``series_tol``; it needs a contractive target matrix.
    """
    hs = np.asarray(t.plant.h(t.plant.backward_orbit(x, t.series_n)), dtype=float)
    terms = np.einsum("jzy,j...y->j...z", t.series_table, hs)
    for term in terms[1:]:  # not np.add.reduce: it sums a lone point's n_z = 1 pairwise
        terms[0] += term
    return terms[0].copy()


def _series_table(target: TargetSystem, plant: PlantModel, series_tol: float) -> np.ndarray:
    """``A^j B``, stacked, for ``j`` below the length the ``series_tol`` tail bound fixes."""
    a_norm = mat_inf_norm(target.A)
    if a_norm >= 1.0:
        raise ValueError(f"scaled target matrix has norm {a_norm:.3g} >= 1; series may diverge")
    box = plant.box_x_enlarged
    per_axis = max(2, int(round(_SERIES_SUP_GRID ** (1.0 / box.dim))))
    grid = box.grid(per_axis)
    h_max = _SUP_OUTPUT_INFLATION * float(np.max(np.abs(np.asarray(plant.h(grid), dtype=float))))
    b_norm = mat_inf_norm(target.B)
    scale = b_norm * max(h_max, 1e-30) / (1.0 - a_norm)
    n = 1 if scale <= series_tol else math.ceil(math.log(series_tol / scale) / math.log(a_norm))
    table = [target.B]
    for _ in range(n - 1):
        table.append(target.A @ table[-1])
    return np.stack(table)


def make_series_transform(plant: PlantModel, target: TargetSystem,
                          series_tol: float = 1e-9) -> KklTransform:
    return KklTransform(target, plant, series_tol=series_tol)


# ---------------------------------------------------------------------------
# polynomial mode: coefficient matching over a monomial basis


def solve_poly_T(plant: PlantModel, target: TargetSystem,
                 basis: Sequence[Sequence[int]]) -> np.ndarray:
    """Coefficient table of the exact polynomial transform.

    ``basis`` must list distinct exponent tuples, be closed under composition
    with the dynamics and span the output map; ``_fit`` fits both maps on it
    from probe points, ``K`` from ``_monomials(f(x)) = _monomials(x) @ K``.
    Each target block yields a small linear system in coefficient space; one
    singular relative to the norms of its terms means a resonant eigenvalue.
    """
    basis = tuple(tuple(int(p) for p in e) for e in basis)
    if any(len(e) != plant.n_x or any(p < 0 for p in e) for e in basis):
        raise ValueError("basis exponents must be nonnegative tuples of length n_x")
    repeated = next((e for j, e in enumerate(basis) if e in basis[:j]), None)
    if repeated is not None:
        raise ValueError(f"basis lists the exponent tuple {repeated} more than once")
    n_b = len(basis)
    pts = plant.box_x.sample(np.random.default_rng(353), max(3 * n_b, 16))
    vander = _monomials(pts, basis)
    k_mat = _fit(vander, _monomials(np.asarray(plant.f(pts), dtype=float), basis),
                 "basis not closed under composition with the dynamics")
    h_coeffs = _fit(vander, np.asarray(plant.h(pts), dtype=float),
                    "output map is not spanned by the basis").T

    rows = []
    for ch, (a_i, b_i) in enumerate(target.pairs):
        m_i = a_i.shape[0]
        lhs = np.kron(np.eye(m_i), k_mat) - target.gamma * np.kron(a_i, np.eye(n_b))
        rhs = np.outer(b_i, h_coeffs[ch]).reshape(-1)
        scale = np.linalg.norm(k_mat, 2) + target.gamma * np.linalg.norm(a_i, 2)
        if np.linalg.svd(lhs, compute_uv=False)[-1] < _RESONANCE_RTOL * scale:
            raise ValueError(f"resonant target eigenvalue in block {ch}: "
                             "coefficient system is singular")
        sol = np.linalg.solve(lhs, rhs)
        rows.append(sol.reshape(m_i, n_b))
    return np.vstack(rows)


def make_polynomial_transform(plant: PlantModel, target: TargetSystem,
                              basis: Sequence[Sequence[int]]) -> KklTransform:
    """The polynomial transform over ``basis``, solved and checked by ``KklTransform``."""
    return KklTransform(target, plant, basis)


def transform_residual(t: KklTransform, pts: np.ndarray) -> float:
    """Max defect of ``T(f(x)) - A T(x) - B h(x)`` over the given points."""
    fx = np.asarray(t.plant.f(pts), dtype=float)
    lhs = eval_T(t, fx)
    rhs = eval_T(t, pts) @ t.target.A.T + np.asarray(t.plant.h(pts), dtype=float) @ t.target.B.T
    return float(np.max(np.abs(lhs - rhs)))


def _fit(vander: np.ndarray, values: np.ndarray, what: str) -> np.ndarray:
    """Least-squares coefficients of ``values`` on the basis columns ``vander``.

    Raises ``ValueError(what)`` unless the fit is exact to rounding, ``1e-9``
    relative to the largest value; a NaN fails too.
    """
    coeffs, *_ = np.linalg.lstsq(vander, values, rcond=None)
    err = np.max(np.abs(vander @ coeffs - values))
    if not err <= 1e-9 * (1.0 + np.max(np.abs(values))):
        raise ValueError(what)
    return coeffs


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


def invert_T(t: KklTransform, z, cfg: InverseConfig, warm=None):
    """Best box-constrained preimage of ``z`` under the transform.

    Multi-start damped Gauss-Newton, with the exact Jacobian in polynomial
    mode and forward differences in series mode; the warm start (when
    given) and all lattice starts iterate in one batch, which a start leaves
    once it meets ``z``, once its model promises no decrease beyond
    rounding, once it stalls, or once it can no longer be the returned point
    (see ``_gauss_newton``). Ties between equally good
    minimizers break on smaller max-norm, then lexicographically, so
    results are deterministic. Never raises: the residual reports the fit
    quality.

    ``z`` of shape ``(n_z,)`` returns ``(x, resid)``. A stack of targets of
    shape ``(p, n_z)`` returns ``(xs, resids)`` of shapes ``(p, n_x)`` and
    ``(p,)``, each row exactly what the single-target call returns. ``warm``
    is shaped like the result: ``(n_x,)`` for one target, ``(p, n_x)``
    (one point per target) for a stack. All targets' starts run in the
    same batch; a target whose starts have all stopped costs nothing more.
    """
    z = np.asarray(z, dtype=float)
    n_z = t.target.n_z
    if z.shape != (n_z,) and (z.ndim != 2 or z.shape[1] != n_z):
        raise ValueError(f"z must have shape ({n_z},) or (p, {n_z})")
    zs = z.reshape(-1, n_z)
    p = len(zs)
    lattice = cfg.start_points
    n_x = lattice.shape[1]
    starts = np.broadcast_to(lattice, (p,) + lattice.shape)
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != z.shape[:-1] + (n_x,):
            raise ValueError(f"warm must have shape {z.shape[:-1] + (n_x,)}, got {warm.shape}")
        starts = np.concatenate([warm.reshape(p, 1, n_x), starts], axis=1)
    xs, rs = _gauss_newton(t, zs, starts, cfg)
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
    """Gauss-Newton from every start; ``starts[g]`` all fit target ``z[g]``.

    ``z`` has shape ``(p, n_z)`` and ``starts`` ``(p, n_per, n_x)``; the end
    points come back as ``(p, n_per, n_x)`` with their max-norm residuals
    ``(p, n_per)``. Each iteration runs only on the active starts. A start
    leaves the batch at its current point:

    * before its Jacobian, once its max-norm residual is at most ``_TOL``;
    * before its line search, once the decrease ``f - ||res + J d||^2``
      that the linear model of its full Gauss-Newton step ``d`` promises
      is at most ``_STOP_DECREASE * f``, where ``f`` is its sum of squares:
      below that, the decrease is within the rounding of ``f`` itself;
    * before its line search, once it can no longer be its target's
      returned point: with ``best`` the smallest current sum of squares
      among the starts of its target, both ``f`` and ``||res + J d||^2``
      exceed ``n_z * best``. Its max-norm residual, at least
      ``sqrt(f / n_z)``, then exceeds ``sqrt(best)``, which bounds the final
      max-norm residual of that best start, since no start's sum of squares
      ever grows;
    * after its line search, once no step of the ladder lowers ``f`` or the
      accepted step moves it by rounding only.

    The Jacobian is exact in polynomial mode (``jacobian_poly``) and a
    forward difference in series mode. While a start is in the batch its
    iterates do not depend on the other starts, and whether it stays
    depends only on the starts of its own target, so each target's end
    points do not depend on the other targets, as long as ``eval_T`` and
    the Jacobian give a point the same bits in any batch: a lone polynomial
    point goes through a one-row matmul (BLAS gemv) that rounds
    differently, and the series probes of a lone active start are one point
    when ``n_x == 1``.
    """
    p, n_per, n_x = starts.shape
    n_z = z.shape[1]
    lo, hi = cfg.box.lo, cfg.box.hi
    x = np.minimum(np.maximum(np.asarray(starts, dtype=float).reshape(-1, n_x), lo), hi)
    z = np.repeat(z, n_per, axis=0)
    res = eval_T(t, x) - z
    f = (res * res).sum(axis=1)  # each start's latest sum of squares, for its target's best
    damping = 1e-12 * np.eye(n_x)
    # the active starts, compacted: index, point, residual, target, sum of squares
    act, xa, ra, za, fa = np.arange(len(x)), x, res, z, f
    for _ in range(_MAX_ITERS):
        # a start that meets its target leaves before its Jacobian
        keep = np.abs(ra).max(axis=1) > _TOL
        if not keep.all():
            act, xa, ra, za, fa = act[keep], xa[keep], ra[keep], za[keep], fa[keep]
        if not act.size:
            break
        bound = n_z * f.reshape(p, n_per).min(axis=1)[act // n_per]
        jac = _jacobian(t, xa, ra, za)
        jtj = np.einsum("sri,srj->sij", jac, jac) + damping
        grad = np.einsum("sri,sr->si", jac, ra)
        direction = -np.linalg.solve(jtj, grad[..., None])[..., 0]
        lin = ra + np.einsum("sri,si->sr", jac, direction)
        model = (lin * lin).sum(axis=1)
        keep = ((fa <= bound) | (model <= bound)) & (fa - model > _STOP_DECREASE * fa)
        if not keep.all():
            act, xa, ra, za, fa, direction = (
                act[keep], xa[keep], ra[keep], za[keep], fa[keep], direction[keep])
            if not act.size:
                break

        # whole backtracking ladder in one batched evaluation per iteration
        n_s = len(act)
        trials = np.minimum(np.maximum(xa + _LS_ALPHAS[:, None, None] * direction, lo), hi)
        res_t = eval_T(t, trials.reshape(-1, n_x)).reshape(len(_LS_ALPHAS), n_s, -1) - za
        f_t = (res_t * res_t).sum(axis=2)
        improving = f_t < fa
        pick = np.argmax(improving, axis=0), np.arange(n_s)
        step = improving[pick]
        x_next = np.where(step[:, None], trials[pick], xa)
        # a start without an improving step, or one that moves by rounding
        # only, has stalled
        keep = (np.abs(x_next - xa).max(axis=1)
                > 1e-15 * (1.0 + np.abs(x_next).max(axis=1)))
        xa, ra = x_next, np.where(step[:, None], res_t[pick], ra)
        fa = np.where(step, f_t[pick], fa)
        x[act], res[act], f[act] = xa, ra, fa
        if not keep.all():
            act, xa, ra, za, fa = act[keep], xa[keep], ra[keep], za[keep], fa[keep]
    resid = np.abs(res).max(axis=1)
    return x.reshape(p, n_per, n_x), resid.reshape(p, n_per)


def _jacobian(t: KklTransform, x: np.ndarray, res: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(s, n_z, n_x)`` Jacobian at the points ``x``, whose residuals are ``res = T(x) - z``.

    Exact in polynomial mode; a forward difference of the residual in series mode.
    """
    if t.mode == "polynomial":
        return jacobian_poly(t, x)
    n_s, n_x = x.shape
    steps = _FD_STEP * np.maximum(1.0, np.abs(x))
    probes = (x[None, :, :] + steps.T[:, :, None] * np.eye(n_x)[:, None, :]).reshape(-1, n_x)
    res_p = eval_T(t, probes).reshape(n_x, n_s, -1) - z
    # einsum sums in another order over a strided operand: keep the
    # (start, row, axis) layout contiguous so the sums stay bit-stable
    return np.ascontiguousarray(((res_p - res) / steps.T[:, :, None]).transpose(1, 2, 0))


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
