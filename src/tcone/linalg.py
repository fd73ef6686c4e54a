"""Exact linear algebra over the finite fields of :mod:`tcone.field`.

Matrices are numpy int64 arrays of element codes.  Elimination is written
once, in `_eliminate`, on the array ops of :class:`tcone.field.Field`, which
alone know how an element is stored; a graded-piece span is the
(rows, pivots) pair of its `rref`.  All routines are deterministic: reduced
row echelon form is canonical, and nullspace bases are ordered by free
column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .field import Field


def as_matrix(rows, ncols: int) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


def _eliminate(m: np.ndarray, field: Field, reduced: bool):
    """Row-reduce m in place and return its pivot columns.

    Rows below the current pivot row are zero left of the current column
    c, so the pivot row is too, and each step scales and subtracts only
    live columns: those of m[:, c:] where the pivot row is nonzero.  With
    reduced=True the pivot column is cleared in every other row (reduced
    echelon form); with reduced=False only in the rows below (echelon form,
    pivots 1).  The nonzero rows come first.
    """
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv], c:] = m[[piv, r], c:]
        # the pivot row changes nothing where it is zero
        live = c + np.nonzero(m[r, c:])[0]
        m[r, live] = field.vmul(m[r, live], field.inv(int(m[r, c])))
        if reduced:
            other = np.nonzero(m[:, c])[0]
            other = other[other != r]
        else:
            other = r + 1 + np.nonzero(m[r + 1:, c])[0]
        if other.size:
            block = np.ix_(other, live)
            m[block] = field.axpy(m[block], m[other, c][:, None], m[r, live])
        pivots.append(c)
        r += 1
    return pivots


def rref(mat: np.ndarray, field: Field):
    """Canonical reduced row echelon form; returns (rows, pivot columns)."""
    m = mat.copy()
    pivots = _eliminate(m, field, reduced=True)
    return m[:len(pivots)], pivots


def nullspace(mat: np.ndarray, field: Field) -> np.ndarray:
    """Basis of {x : mat @ x = 0} as rows, one per free column."""
    cols = mat.shape[1]
    red, pivots = rref(mat, field)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.vneg(red[:, free].T)
    return basis


def solve(mat: np.ndarray, rhs: np.ndarray, field: Field):
    """One solution x of mat @ x = rhs, or None; canonical (free vars zero).

    A 2-D rhs holds one system per column, and the result is the list of
    their answers, all read off one rref of [mat | rhs]: the rows below
    mat's rank are zero on mat's columns, so column j is consistent exactly
    when it is zero there, and then the rows above hold its canonical
    solution, as in the rref of [mat | rhs[:, j]].
    """
    rows, cols = mat.shape
    block = rhs.reshape(rows, 1) if rhs.ndim == 1 else rhs
    aug = np.zeros((rows, cols + block.shape[1]), dtype=np.int64)
    aug[:, :cols] = mat
    aug[:, cols:] = block
    red, pivots = rref(aug, field)
    rank = sum(1 for pc in pivots if pc < cols)
    out = []
    for j in range(cols, aug.shape[1]):
        if red[rank:, j].any():
            out.append(None)
            continue
        x = np.zeros(cols, dtype=np.int64)
        x[pivots[:rank]] = red[:rank, j]
        out.append(x)
    return out[0] if rhs.ndim == 1 else out


def reduce_against(red: np.ndarray, pivots, vec: np.ndarray, field: Field):
    """Remainder of vec against echelon rows (pivots 1, in pivot order)."""
    v = vec.copy()
    for r, pc in enumerate(pivots):
        if v[pc]:
            v[pc:] = field.axpy(v[pc:], int(v[pc]), red[r, pc:])
    return v


def row_space_contains(rows: np.ndarray, vec: np.ndarray, field: Field) -> bool:
    """Membership of vec in the row space of rows, eliminating rows in place.

    Forward elimination suffices: echelon rows taken in pivot order clear
    the vector one pivot at a time.  rows is left in echelon form; pass a
    copy to keep it.
    """
    pivots = _eliminate(rows, field, reduced=False)
    return not reduce_against(rows, pivots, vec, field).any()


class SpanBasis:
    """Incrementally maintained row space in reduced echelon form.

    The pipeline no longer uses it: graded-piece spans are `rref` matrices.
    It is kept only because the benchmark's corpus builds one and its
    tracer counts `SpanBasis.add` by name.
    """

    def __init__(self, ncols: int, field: Field):
        self.field = field
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        return reduce_against(self.rows, self.pivots, vec, self.field)

    def contains(self, vec: np.ndarray) -> bool:
        return not self._reduce(vec).any()

    def add(self, vec: np.ndarray) -> bool:
        """Insert vec into the span; returns True if the dimension grew."""
        f = self.field
        v = self._reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        v = f.vmul(v, f.inv(int(v[pc])))
        # eliminate the new pivot column from existing rows
        hit = np.nonzero(self.rows[:, pc])[0]
        if hit.size:
            self.rows[hit] = f.axpy(self.rows[hit], self.rows[hit, pc][:, None], v)
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pc:
            at += 1
        self.rows = np.insert(self.rows, at, v, axis=0)
        self.pivots.insert(at, pc)
        return True

    def matrix(self) -> np.ndarray:
        return self.rows.copy()
