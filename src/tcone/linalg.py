"""Exact linear algebra over the finite fields of :mod:`tcone.field`.

Matrices are numpy int64 arrays of element codes.  Dense elimination is
written once, in `_eliminate`, with two update rules: small matrices go
through Python lists, on mod-p arithmetic or the list tables of
:class:`tcone.field.Field`, and the others through the Field's array ops,
which alone know how an element is stored in an array.  A graded-piece
span is the (rows, pivots) pair of its `rref`.  Large systems of sparse
rows, the Frobenius oracle's, are decided by `sparse_row_space_contains`
without a dense matrix.  All routines are deterministic: reduced row
echelon form is canonical, and nullspace bases are ordered by free column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .field import Field


# Matrices with at most this many cells, over prime fields and table
# fields with list tables (`Field.list_tables`), are eliminated on Python
# lists; larger ones, and the other fields, with numpy on the rows and
# columns that change.  Graded-piece matrices are mostly a few dozen cells
# (median 25), where each numpy call costs more than the arithmetic it
# does; large sparse matrices are the other way round.  Replaying every
# elimination of 300 seeded closure and membership problems and 80
# frobenius problems, the list rule was 1.6 to 4.8 times as fast as the
# numpy rule up to 3072 cells, level from 3072 to 4096 (a handful of tall
# matrices of low rank) and 1.1 to 2 times as slow beyond.  Sparse systems
# of at most this many cells are filled in and eliminated here too: on
# the oracle's small systems of seeded benchmark problems,
# `sparse_row_space_contains` without that took 1.6 to 2 times as long.
_DENSE_CELLS = 4096


def _eliminate(m: np.ndarray, field: Field, reduced: bool):
    """Row-reduce m in place and return its pivot columns.

    Rows below the current pivot row are zero left of the current column
    c, so the pivot row is too.  With reduced=True the pivot column is
    cleared in every other row (reduced echelon form); with reduced=False
    only in the rows below (echelon form, pivots 1).  The nonzero rows come
    first.  Both update rules give the same matrix: they scale the pivot
    row and subtract multiples of it only in its nonzero columns, from the
    rows that are nonzero in column c, one element at a time on lists
    (`_eliminate_lists`) or all at once on arrays.
    """
    if m.size <= _DENSE_CELLS and (field.k == 1
                                   or field.list_tables is not None):
        return _eliminate_lists(m, field, reduced)
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
            top = m[r, c:].copy()
            m[r, c:] = m[piv, c:]
            m[piv, c:] = top
        live = c + np.nonzero(m[r, c:])[0]
        m[r, live] = field.vmul(m[r, live], field.inv(int(m[r, c])))
        if reduced:
            other = np.nonzero(m[:, c])[0]
            other = other[other != r]
        else:
            other = r + 1 + np.nonzero(m[r + 1:, c])[0]
        if other.size:
            block = other[:, None], live
            m[block] = field.axpy(m[block], m[other, c][:, None], m[r, live])
        pivots.append(c)
        r += 1
    return pivots


def _eliminate_lists(m: np.ndarray, field: Field, reduced: bool):
    """`_eliminate` on m.tolist(), written back once: mod-p integer
    arithmetic on a prime field, else lookups in the field's (mul, add)
    list tables, where -f is mul[-1][f]; in characteristic 2, where -f is
    f, a sum is an XOR of codes and there is no add table."""
    a = m.tolist()
    rows, cols = m.shape
    p = field.p
    tables = field.list_tables
    if tables is not None:
        mul, add = tables
        minus = mul[p - 1]
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        for piv in range(r, rows):
            if a[piv][c]:
                break
        else:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = a[r]
        live = [j for j in range(c, cols) if row[j]]
        if row[c] != 1:
            inv = field.inv(row[c])
            if tables is None:
                for j in live:
                    row[j] = row[j] * inv % p
            else:
                scale = mul[inv]
                for j in live:
                    row[j] = scale[row[j]]
        terms = [(j, row[j]) for j in live]
        for i in range(0 if reduced else r + 1, rows):
            other = a[i]
            f = other[c]
            if not f or i == r:
                continue
            if tables is None:
                for j, v in terms:
                    other[j] = (other[j] - f * v) % p
            elif p == 2:
                times = mul[f]
                for j, v in terms:
                    other[j] ^= times[v]
            else:
                times = mul[minus[f]]
                for j, v in terms:
                    other[j] = add[other[j]][times[v]]
        pivots.append(c)
        r += 1
    # rows r and below are zero now
    if r:
        m[:r] = a[:r]
        m[r:] = 0
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
    consistent = ~red[rank:, cols:].any(axis=0)
    # row j is the solution of column j
    x = np.zeros((block.shape[1], cols), dtype=np.int64)
    x[:, pivots[:rank]] = red[:rank, cols:].T
    out = [x[j] if ok else None for j, ok in enumerate(consistent.tolist())]
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


def _reduce_lead(w: np.ndarray, pivots: dict, field: Field):
    """Reduce the dense vector w in place until its lead (first nonzero
    column) is no pivot's; return that lead, or None once w vanishes.
    pivots maps a lead column to (cols, vals, inv): a row's nonzero
    columns and values, and the inverse of its value at the lead.
    """
    pos = 0
    while True:
        nz = np.flatnonzero(w[pos:])
        if nz.size == 0:
            return None
        lead = pos + int(nz[0])
        if lead not in pivots:
            return lead
        cols, vals, inv = pivots[lead]
        w[cols] = field.axpy(w[cols], field.mul(int(w[lead]), inv), vals)
        pos = lead + 1


def sparse_row_space_contains(rows, vec: np.ndarray, field: Field) -> bool:
    """Membership of the dense vec in the row space of sparse rows.

    rows is (indptr, cols, vals) in compressed-row form, with int32 or
    int64 indices: row i has the nonzero entries
    vals[indptr[i]:indptr[i + 1]] in the strictly ascending columns
    cols[indptr[i]:indptr[i + 1]], and its first column is its lead; a row
    may have no entries.  The three arrays are only read.  Pivots are
    keyed by lead.  The first row of each lead becomes a pivot as it is:
    views of its own columns and values, and the inverse of its lead
    value, by which each reduction scales its factor.  Every other row is
    reduced until its lead is new, when it becomes a pivot too (its
    nonzero columns and values, and the inverse), or until it vanishes.
    The pivots are then an echelon basis of the row space, so vec,
    reduced the same way, vanishes exactly when it lies in it.  Nothing of
    size rows x columns is allocated, and no copy of the rows, unless the
    system has at most `_DENSE_CELLS` cells: such systems are filled in
    and go to `row_space_contains`, which is faster there.
    """
    indptr, cols, vals = rows
    n, ncols = len(indptr) - 1, vec.shape[0]
    lens = np.diff(indptr)
    if n * ncols <= _DENSE_CELLS:
        dense = np.zeros((n, ncols), dtype=np.int64)
        dense[np.repeat(np.arange(n), lens), cols] = vals
        return row_space_contains(dense, vec, field)
    filled = np.flatnonzero(lens)
    leads, first = np.unique(cols[indptr[filled]], return_index=True)
    heads = filled[first]
    # the other filled rows, in order, by a mask: np.setdiff1d would
    # import numpy.ma on its first call in a process
    others = np.ones(len(filled), dtype=bool)
    others[first] = False
    starts = indptr[heads]
    lead_vals = vals[starts].tolist()
    inverse = {v: field.inv(v) for v in set(lead_vals)}
    pivots = {lead: (cols[s:e], vals[s:e], inverse[v])
              for lead, s, e, v in zip(leads.tolist(), starts.tolist(),
                                       indptr[heads + 1].tolist(), lead_vals)}
    for i in filled[others].tolist():
        w = np.zeros(ncols, dtype=np.int64)
        w[cols[indptr[i]:indptr[i + 1]]] = vals[indptr[i]:indptr[i + 1]]
        lead = _reduce_lead(w, pivots, field)
        if lead is not None:
            nz = np.flatnonzero(w)
            pivots[lead] = (nz, w[nz], field.inv(int(w[lead])))
    return _reduce_lead(vec.copy(), pivots, field) is None


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
