"""Set inversion of a quadratic transform: bisection (SIVIA), then Krawczyk.

Recovery in polynomial mode looks for every state ``x`` of a prior box whose
image ``T(x)`` lies in the transform bounds ``[z]``, and returns the hull of
that set. It needs neither an injectivity margin nor a residual slack.

Enclosure. When the basis has degree at most 2, ``T`` is quadratic and its
Jacobian is affine, ``J(x) = J0 + sum_i G_i x_i`` (``J0`` and the ``G_i``
are rows of the transform's ``jac_coeffs``). Then, exactly,
``T(x) = T(c) + J((x + c)/2) (x - c)``, and over the box ``c +- r``

    T(c +- r)  is inside  T(c) +- (|J(c)| + sum_i |G_i| r_i / 2) r.

``T(c)`` itself is ``T(0) + (J0 + J(c)) c / 2``, so one ``J(c)`` per box
serves both. ``QuadraticEnclosure`` holds these coefficient arrays, built
once per observer configuration.

Bisection (Jaulin & Walter, *Automatica* 29(4), 1993). Starting from the
prior, each level encloses the images of all its boxes at once, drops the
boxes whose enclosure misses ``[z]``, keeps the boxes whose enclosure lies
inside ``[z]`` or whose widest side is at most ``_EPS``, and halves the rest
along their widest axis. Once the next level would pass ``_MAX_BOXES``
boxes in all, every remaining box is kept as it is. Only the hull matters,
so a box inside the hull of the boxes known to hold only solutions is not
split, and the undecided boxes on the hull's faces face a sharper test
(``QuadraticEnclosure.consistent2``) that drops boxes whose image only
passes close to ``[z]``.

Prior sets. The prior is a union of boxes inside the prior box (without
one, the box alone): the image through linear dynamics of the boxes the
last recovery kept, plus the disturbance (``dynamic_prior``; Kieffer,
Jaulin & Walter, *Int. J. Adapt. Control Signal Process.* 16(3), 2002).
One step's bounds ``[z]`` are often met on several branches far apart, of
which the history rules out all but one. ``PriorGrid`` holds the union as
the cells of a regular grid over the box that meet one of its boxes;
bisection drops the boxes that meet no such cell, and counts a box as
holding only solutions only when every cell it meets is one. The kept
boxes are returned, clipped to the hull, for the next step to map.

Krawczyk (*Computing* 4, 1969). On the hull ``X`` with centre ``c``, with
``C = pinv(J(c))`` and the Newton point ``u = c - C (T(c) - mid[z])``, every
``x`` of ``X`` with ``T(x)`` in ``[z]`` satisfies, by the exact mean-value
form above at ``y = (x + u)/2``,

    x = u + C (T(x) - T(u)) + (I - C J(y)) (x - u),

so it lies in ``u + C ([z] - T(u)) + (I - C J(Y)) (X - u)``, with
``Y = (X + u)/2``. ``C J(y)`` is affine in ``y``, so its range over ``Y`` is
exact. The identity holds for any ``C``, so the non-square ``J`` needs
nothing more. ``X`` is intersected with that box for at most
``_KRAWCZYK_SWEEPS`` sweeps, and fewer once a sweep no longer shrinks it.

Rounding. numpy rounds to nearest. Each computed bound is widened by
``_PAD_REL`` times the magnitude of the terms that make it (for the
enclosures of ``T``, the largest such magnitude on the enlarged box,
``QuadraticEnclosure.pad``), several hundred times the rounding of such
short sums. That is a stated bound, not outward rounding: the result is
certified only up to it.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .intervals import Box, interval_image

# bisection stops at boxes whose widest side is at most _EPS, and at
# _MAX_BOXES boxes per recovery; Krawczyk runs at most _KRAWCZYK_SWEEPS
# sweeps; bounds are widened by _PAD_REL times the magnitude of their terms;
# a prior grid has at most _GRID_CELLS cells, and its cell indices are
# widened by _INDEX_SLACK of a cell
_EPS = 0.01
_MAX_BOXES = 4096
_KRAWCZYK_SWEEPS = 4
_PAD_REL = 1e-12
_GRID_CELLS = 128 * 128
_INDEX_SLACK = 1e-6


class QuadraticEnclosure:
    """The coefficient arrays of the mean-value enclosure of a quadratic ``T``.

    Build it with ``QuadraticEnclosure.of(transform, bound)``, which returns
    ``None`` for a transform whose Jacobian is not affine (series mode, or a
    basis of degree above 2). ``pad`` is the rounding bound of ``T``'s
    enclosures, per component: ``_PAD_REL`` times the largest sum of the
    magnitudes of the terms of ``T(c) +- radius`` over the box ``bound``.
    """

    def __init__(self, t0: np.ndarray, j0: np.ndarray, g: np.ndarray, bound: Box):
        n_z, n_x = j0.shape
        self.n_z, self.n_x = n_z, n_x
        self.t0 = t0
        self.j0 = j0
        self.g = g  # (n_x, n_z, n_x): G_i = dJ/dx_i
        # J(c) for a batch of rows c is c @ _g_flat + _j0_flat, flat (s, n_z * n_x)
        self._g_flat = g.reshape(n_x, n_z * n_x)
        self._j0_flat = j0.reshape(-1)
        # 1/2 sum_i |G_i| r_i r, as one product with the products r_i r_k
        self._w = 0.5 * np.abs(g).transpose(0, 2, 1).reshape(n_x * n_x, n_z)
        # the spread of r holds r_k in row z * n_x + k, column z, so that
        # |J(c)|, flat, times the spread is |J(c)| r
        self._blocks = np.eye(n_z)[:, None, :]
        m = np.maximum(np.abs(bound.lo), np.abs(bound.hi))
        abs_j = np.abs(j0) + np.einsum("izk,i->zk", np.abs(g), m)
        self.pad = _PAD_REL * (np.abs(t0) + 2.0 * abs_j @ m + np.outer(m, m).reshape(-1) @ self._w)

    @classmethod
    def of(cls, t, bound: Box) -> Optional["QuadraticEnclosure"]:
        """The enclosure of the polynomial transform ``t`` over boxes inside
        ``bound``, or ``None`` when its Jacobian is not affine."""
        if t.mode != "polynomial" or any(sum(e) > 1 for e in t.jac_basis):
            return None
        n_x, n_z = t.plant.n_x, t.target.n_z
        table = t.jac_coeffs.reshape(-1, n_z, n_x)
        j0 = np.zeros((n_z, n_x))
        g = np.zeros((n_x, n_z, n_x))
        for row, e in zip(table, t.jac_basis):
            if sum(e) == 0:
                j0 = row
            else:
                g[e.index(1)] = row
        zero = tuple((0,) * n_x)
        t0 = t.poly_coeffs[:, t.basis.index(zero)] if zero in t.basis else np.zeros(n_z)
        return cls(np.array(t0, dtype=float), np.array(j0), g, bound)

    def jacobian(self, c: np.ndarray) -> np.ndarray:
        """``J`` at one point ``c`` of shape ``(n_x,)``, as ``(n_z, n_x)``."""
        return self.j0 + np.einsum("izk,i->zk", self.g, c)

    def value(self, c: np.ndarray) -> np.ndarray:
        """``T`` at one point ``c`` of shape ``(n_x,)``, unpadded."""
        return self.t0 + 0.5 * (self.j0 + self.jacobian(c)) @ c

    def image2(self, c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``2 (T(c) - T(0))`` and twice the padded radius of the enclosure of
        ``T(c +- r)``, per box: the doubled form saves the halvings.

        ``c`` holds the ``(s, n_x)`` centres and ``r`` the ``(n_x,)`` radius
        they share; both results are ``(s, n_z)``.
        """
        jc = c @ self._g_flat + self._j0_flat
        s = len(c)
        tc2 = np.einsum("szk,sk->sz", (jc + self._j0_flat).reshape(s, self.n_z, self.n_x), c)
        spread = (self._blocks * (2.0 * r)[None, :, None]).reshape(-1, self.n_z)
        rad2 = np.abs(jc) @ spread + 2.0 * (np.outer(r, r).reshape(-1) @ self._w + self.pad)
        return tc2, rad2

    def consistent2(self, c: np.ndarray, r: np.ndarray, z_c2: np.ndarray,
                    z_r2: np.ndarray) -> np.ndarray:
        """Whether each box ``c +- r`` can still hold a state whose image lies
        in ``[z]``, by the enclosure of ``P T`` with ``P = I - J(c) pinv(J(c))``
        per box; ``[z]`` comes doubled, as ``z_c2 = 2 (mid[z] - T(0))`` and
        ``z_r2`` its width.

        ``P`` maps the columns of ``J(c)`` to about zero, so the first-order
        part of that enclosure nearly vanishes, and a box around a point whose
        image only passes close to ``[z]`` fails long before the enclosure of
        ``T`` itself misses ``[z]``. Any ``P`` gives a valid test, so ``pinv``
        is taken from the normal equations with a tiny damping; the rounding
        of ``P T(c)`` is padded.
        """
        n_x = self.n_x
        jc = (c @ self._g_flat + self._j0_flat).reshape(len(c), self.n_z, n_x)
        jt = jc.transpose(0, 2, 1)
        jtj = jt @ jc
        damp = 1e-12 * np.trace(jtj, axis1=1, axis2=2) + 1e-300
        proj = np.eye(self.n_z) - jc @ np.linalg.solve(jtj + damp[:, None, None] * np.eye(n_x), jt)
        abs_p = np.abs(proj)
        off2 = np.einsum("szk,sk->sz", jc + self.j0, c) - z_c2
        bound2 = abs_p @ (z_r2 + 2.0 * self.pad) + np.abs(proj @ jc) @ (2.0 * r)
        for i in range(n_x):
            bound2 += r[i] * (np.abs(proj @ self.g[i]) @ r)
        bound2 += _PAD_REL * (abs_p @ np.abs(off2)[:, :, None])[:, :, 0]
        return np.all(np.abs((proj @ off2[:, :, None])[:, :, 0]) <= bound2, axis=1)


class PriorGrid:
    """A union of boxes, held as the cells of a regular grid over the box
    ``[lo, hi]`` that meet one of them: an outer approximation of the union's
    part in ``[lo, hi]``.

    The union's boxes are the rows of ``box_lo`` and ``box_hi``. The grid has
    the same number of cells along each axis, at most ``_GRID_CELLS`` in all.
    ``count`` tells, per box, how many marked cells and how many cells it
    meets. Cell indices are widened by ``_INDEX_SLACK`` of a cell on both
    sides, so that a box and a union box that share a point share a marked
    cell despite the rounding of the indices.
    """

    def __init__(self, lo, hi, box_lo, box_hi):
        n = len(lo)
        per_axis = int(_GRID_CELLS ** (1.0 / n) + 1e-9)
        width = hi - lo
        self.lo, self.top = lo, per_axis - 1
        # an axis too narrow for a finite scale (zero or subnormal) is one cell
        wide = width > per_axis / np.finfo(float).max
        self.scale = np.where(wide, per_axis / np.where(wide, width, 1.0), 0.0)
        # arrays of (per_axis + 1)^n entries are held flat: a cell range
        # [i0, i1] has 2^n corners, each taking i0 or i1 + 1 along each axis
        side = per_axis + 1
        strides = side ** np.arange(n - 1, -1, -1)
        bits = np.array(list(itertools.product((0, 1), repeat=n)))
        self._lo_strides, self._hi_strides = ((1 - bits) * strides).T, (bits * strides).T
        parity = bits.sum(axis=1)
        self._signs = (-1.0) ** (n - parity)
        # mark the cells of every box as a difference array, then sum it up
        meets = np.all((box_hi >= lo) & (box_lo <= hi), axis=1)
        corners = self._corners(*self._cells(box_lo[meets], box_hi[meets]))
        weights = np.broadcast_to((-1.0) ** parity, corners.shape)
        marks = np.bincount(corners.ravel(), weights.ravel(), side ** n).reshape((side,) * n)
        for axis in range(n):
            marks = np.cumsum(marks, axis=axis)
        # prefix sums of the marked cells, with a leading zero along every axis
        table = np.zeros((side,) * n)
        table[(slice(1, None),) * n] = marks[(slice(0, -1),) * n] > 0.5
        for axis in range(n):
            table = np.cumsum(table, axis=axis)
        self._table = table.reshape(-1)

    def _cells(self, a, b):
        i0 = np.floor((a - self.lo) * self.scale - _INDEX_SLACK)
        i1 = np.floor((b - self.lo) * self.scale + _INDEX_SLACK)
        top = self.top
        return (np.minimum(np.maximum(i0, 0), top).astype(np.intp),
                np.minimum(np.maximum(i1, 0), top).astype(np.intp))

    def _corners(self, i0, i1):
        return i0 @ self._lo_strides + (i1 + 1) @ self._hi_strides

    def count(self, c, r) -> tuple[np.ndarray, np.ndarray]:
        """Marked cells and all cells met by each box ``c +- r`` (rows of ``c``)."""
        i0, i1 = self._cells(c - r, c + r)
        return self._table[self._corners(i0, i1)] @ self._signs, np.prod(i1 - i0 + 1, axis=1)


def dynamic_prior(m, x_lo, x_hi, x_boxes, d=None):
    """The prior of the next recovery, ``((frame_lo, frame_hi), union)``: the state
    bounds and the state set's boxes ``x_boxes = (box_lo, box_hi)`` (rows) mapped
    through the linear dynamics ``m``, plus ``d = (d_lo, d_hi)`` if given, each
    padded by ``_PAD_REL (1 + max(|lo|, |hi|))``."""
    def image(lo, hi):
        lo, hi = interval_image(m, lo, hi)
        if d is not None:
            lo, hi = lo + d[0], hi + d[1]
        pad = _PAD_REL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        return lo - pad, hi + pad
    # the bounds map as a lone row: inside the batch of boxes they would round differently
    frame_lo, frame_hi = image(x_lo[None], x_hi[None])
    return (frame_lo[0], frame_hi[0]), image(*x_boxes)


def set_invert(enc: QuadraticEnclosure, z_lo, z_hi, lo, hi, prior=None):
    """Hull of the states of the box ``[lo, hi]`` whose image lies in ``[z_lo, z_hi]``.

    Only the states in ``prior``, a union of boxes ``(box_lo, box_hi)``
    (rows), count (``PriorGrid`` over ``[lo, hi]``), or in ``[lo, hi]``
    without one. Bisection, then Krawczyk on its hull (see the module docstring).
    Returns ``(x_lo, x_hi, boxes, kept)`` with ``boxes`` the number of boxes
    the bisection enclosed and ``kept`` the boxes it kept, clipped to the
    hull, as ``(box_lo, box_hi)``; or ``None`` when no state of the box can
    map into ``[z]``.
    """
    z_lo = np.asarray(z_lo, dtype=float)
    z_hi = np.asarray(z_hi, dtype=float)
    z_lo, z_hi = z_lo - _PAD_REL * (1.0 + np.abs(z_lo)), z_hi + _PAD_REL * (1.0 + np.abs(z_hi))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    union = (lo[None], hi[None]) if prior is None else prior
    found = _bisect(enc, z_lo, z_hi, lo, hi, PriorGrid(lo, hi, *union))
    if found is None:
        return None
    lo, hi, boxes, kept = found
    for _ in range(_KRAWCZYK_SWEEPS):
        new = _krawczyk(enc, z_lo, z_hi, lo, hi)
        if new is None:
            return None
        shrunk = np.max(new[1] - new[0]) < 0.5 * np.max(hi - lo)
        lo, hi = new
        if not shrunk:
            break
    c = np.concatenate([c for c, _r in kept])
    r = np.concatenate([np.broadcast_to(r, c.shape) for c, r in kept])
    box_lo, box_hi = c - r, c + r
    box_lo = np.maximum(lo, box_lo - _PAD_REL * (1.0 + np.abs(box_lo)))
    box_hi = np.minimum(hi, box_hi + _PAD_REL * (1.0 + np.abs(box_hi)))
    meets = np.all(box_lo <= box_hi, axis=1)
    return lo, hi, boxes, (box_lo[meets], box_hi[meets])


def _bisect(enc: QuadraticEnclosure, z_lo, z_hi, lo, hi, grid: PriorGrid):
    """Bisection from ``[lo, hi]``: the hull of the kept boxes, the box count
    and the kept boxes, as ``(centres, radius)`` groups.

    The boxes of one level all have the same radius ``r``, since each level
    halves every box along the same, widest, axis; they are held as their
    centres. Boxes that meet no marked cell of the ``grid`` are dropped first.
    A box whose enclosure lies inside ``[z]`` and that meets marked cells
    only holds only solutions, so the hull of those boxes is part of the
    result, and a box inside that hull needs no splitting: it is kept as it
    is. The rounding of the centres is within the
    enclosure's pad, and the hull is padded for it. The tests compare doubled
    quantities (``QuadraticEnclosure.image2``).
    """
    z_c2, z_r2 = z_lo + z_hi - 2.0 * enc.t0, z_hi - z_lo
    c, r = (0.5 * (lo + hi))[None], 0.5 * (hi - lo)
    kept = []
    inner_lo, inner_hi = np.full_like(r, np.inf), np.full_like(r, -np.inf)
    boxes = 0
    while True:
        marked, cells = grid.count(c, r)
        meets = marked > 0.5
        c, full = c[meets], (marked > cells - 0.5)[meets]
        boxes += len(c)
        tc2, rad2 = enc.image2(c, r)
        gap2 = np.abs(tc2 - z_c2)
        inside = np.all(gap2 + rad2 <= z_r2, axis=1) & full
        split = np.all(gap2 <= rad2 + z_r2, axis=1)
        if inside.any():
            c_in = c[inside]
            inner_lo = np.minimum(inner_lo, c_in.min(axis=0) - r)
            inner_hi = np.maximum(inner_hi, c_in.max(axis=0) + r)
            within = np.all((c >= inner_lo + r) & (c <= inner_hi - r), axis=1)
            keep = inside | (split & within)
            kept.append((c[keep], r))
            split &= ~keep
        c = c[split]
        n = len(c)
        if not n:
            break
        axis = int(r.argmax())
        if 2.0 * r[axis] <= _EPS or boxes + 2 * n > _MAX_BOXES:
            kept.append((_peel(enc, c, r, z_c2, z_r2, inner_lo, inner_hi), r))
            break
        h = 0.5 * r[axis]
        r = r.copy()
        r[axis] = h
        c = np.concatenate([c, c])
        c[:n, axis] -= h
        c[n:, axis] += h
    kept = [(c, r) for c, r in kept if len(c)]
    if not kept:
        return None
    hull_lo = np.min([c.min(axis=0) - r for c, r in kept], axis=0)
    hull_hi = np.max([c.max(axis=0) + r for c, r in kept], axis=0)
    hull_lo = np.maximum(lo, hull_lo - _PAD_REL * (1.0 + np.abs(hull_lo)))
    hull_hi = np.minimum(hi, hull_hi + _PAD_REL * (1.0 + np.abs(hull_hi)))
    return hull_lo, hull_hi, boxes, kept


def _peel(enc: QuadraticEnclosure, c, r, z_c2, z_r2, inner_lo, inner_hi):
    """The undecided boxes left once those on the hull's faces that fail
    ``consistent2`` are dropped, face by face, until every face box passes.

    Only the faces outside the inner hull are tested: the others cannot move.
    """
    passed = np.zeros(len(c), dtype=bool)
    while len(c):
        lo_c, hi_c = c.min(axis=0), c.max(axis=0)
        face = ((c == lo_c) & (lo_c - r < inner_lo)) | ((c == hi_c) & (hi_c + r > inner_hi))
        face = np.flatnonzero(np.any(face, axis=1) & ~passed)
        if not len(face):
            break
        ok = enc.consistent2(c[face], r, z_c2, z_r2)
        if ok.all():
            break
        passed[face[ok]] = True
        keep = np.ones(len(c), dtype=bool)
        keep[face[~ok]] = False
        c, passed = c[keep], passed[keep]
    return c


def _krawczyk(enc: QuadraticEnclosure, z_lo, z_hi, lo, hi):
    """One Krawczyk sweep on ``[lo, hi]``: the contracted box, or ``None`` if empty."""
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo) + _PAD_REL * (1.0 + np.abs(c))  # c +- r holds [lo, hi] despite rounding
    z_mid = 0.5 * (z_lo + z_hi)
    cm = np.linalg.pinv(enc.jacobian(c))
    u = c - cm @ (enc.value(c) - z_mid)
    # T(u), padded by the rounding bound of its own terms
    j_u = enc.jacobian(u)
    t_u = enc.value(u)
    t_pad = _PAD_REL * (np.abs(enc.t0) + 0.5 * (np.abs(enc.j0) + np.abs(j_u)) @ np.abs(u))
    a_lo, a_hi = interval_image(cm, z_lo - t_u - t_pad, z_hi - t_u + t_pad)
    # I - C J(Y) over Y = (X + u)/2: centre at (c + u)/2, radius r/2 per axis
    cj = cm @ enc.jacobian(0.5 * (c + u))
    m_c = np.eye(enc.n_x) - cj
    m_r = np.einsum("izk,i->zk", np.abs(np.einsum("xz,izk->ixk", cm, enc.g)), 0.5 * r)
    # (m_c +- m_r)(v_c +- r) with v_c = c - u, in midpoint-radius form
    v_c = c - u
    b_c = m_c @ v_c
    b_r = np.abs(m_c) @ r + m_r @ (np.abs(v_c) + r)
    pad = _PAD_REL * (1.0 + np.abs(u) + np.abs(cm) @ (np.abs(z_mid) + np.abs(t_u) + t_pad)
                      + (1.0 + np.abs(cj)) @ (np.abs(v_c) + r))
    k_lo = u + a_lo + b_c - b_r - pad
    k_hi = u + a_hi + b_c + b_r + pad
    new_lo, new_hi = np.maximum(lo, k_lo), np.minimum(hi, k_hi)
    if np.any(new_lo > new_hi):
        return None
    return new_lo, new_hi
