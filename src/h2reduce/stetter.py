"""Commuting multiplication matrices on the 2^N quotient space.

A diagonal-quadratic system is x_i^2 = m_i . x, one equation per variable:
the first-order conditions x o x = M x, with no constant term, so xi = 0 is
always a root. Its generators form a Groebner basis outright (the leading
terms x_i^2 are pairwise coprime), so the quotient ring has the 2^N
square-free monomials as a basis. Bit convention: bit i of a basis index
corresponds to variable x_i (0-based); index 0 is the constant monomial.

Column k of A_{X_i} holds the square-free normal form of x_i * b_k, where
b_k is the k-th basis monomial. If b_k lacks x_i, x_i * b_k is itself
square-free and the column is exactly the unit vector e_{k | 2^i}; only the
D/2 columns with bit i set, the block B_i, carry numbers, as the rows of
B_i^T. There one substitution x_i^2 -> m_i . x applies, whose result is a
combination of the columns b_k / x_i of the A_{X_j}, all of degree one
less. So the fill runs level by level in the degree (popcount) of k: each
index gamma of one level, with its stored rows of that level (row gamma of
A_{X_j}^T for each bit j of gamma), gives row gamma | 2^i of A_{X_i}^T for
each clear bit i by one small BLAS product, in real arithmetic when M is
real; the products of a block of gammas are one stacked matmul. Row gamma
of A_{X_j}^T for a clear bit j is the unit row e_{gamma | 2^j}, whose
coefficient m_ij is added at column gamma | 2^j. The entries are bit for bit
those of one product of all N rows of M with all N rows gamma, unit rows as
zero rows. No substitution adds a constant term, so column 0 of every
A_{X_i}^T is exactly zero: e_0, the evaluation vector of the root xi = 0,
is an exact eigenvector of each. The matrices commute by construction,
since the leading terms are coprime; a defective fill shows up as missing
or spurious roots: the root ledger of ``EigenSolutionSet`` accounts for
every one of the 2^N eigenvectors, and ``reduce.solve_reduction`` turns an
incomplete ledger into a numerical error.

The roots are read off the eigenvectors of T^T for a random combination
T = sum c_i A_{X_i}: each is the evaluation vector (b_k(xi))_k of one root,
so xi_i is its entry 2^i over its entry 0. The system is real up to the
conjugation of its variables (for the H2 problem, the pairing of conjugate
poles), and the weights c respect it, so T^T is unitarily similar to a real
matrix R = U^H T^T U through a sparse U that mixes each pair of conjugate
monomials. Row k of T^T is sum_j c_j (row k of A_{X_j}^T) over the bits j
of k, plus the unit entries c_j at columns k | 2^j, so it is final once
level popcount(k) is built; conjugate monomials share a popcount, so the
rows of R of that level are final too. ``combine`` forms R as the fill runs
and holds only two adjacent levels at a time, and of T^T only the rows of
a few levels (at most 2^14 entries, or one level), never the A_{X_i},
which it keeps only on request (for the critical-value matrix).
The eigenvectors come from a real ``eig`` of R, and only the rows 0 and 2^i
of U times them are formed. The 2^N tuples read off them are then handled
as one array: all are Newton-polished together, one LAPACK solve per root
and step on a stack of N x N Jacobians, with the arithmetic of a one-root
loop; their residuals are row reductions; and the merge of near-equal roots
tests only the pairs whose norms lie close enough, found by one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import prod
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .errors import BasisSizeError, ConjugationDefectError, NumericalError
from .tolerances import TOL

# Largest N accepted; the CLI's --cap may not exceed it either.
N_CAP = 14


@dataclass(frozen=True)
class DiagQuadSystem:
    """The matrix M defining x_i^2 = m_i . x, and the involution ``conj`` of
    the variables under which the system is real.

    ``conj`` defaults to the identity. A system with conj(m_ij) =
    m_{conj(i), conj(j)} maps each root xi to the root conj(xi)[conj];
    ``common_eigen_solutions`` relies on it, and the eigen stage raises
    ``ConjugationDefectError`` when the matrices do not respect it.
    """

    m: np.ndarray
    conj: np.ndarray

    def __init__(self, m, conj=None):
        m = np.atleast_2d(np.asarray(m, dtype=complex))
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("M must be square")
        if n > N_CAP:
            raise BasisSizeError(f"basis too large: N={n} exceeds cap {N_CAP}")
        if conj is None:
            conj = np.arange(n)
        else:
            conj = np.asarray(conj)
            if (conj.shape != (n,) or not np.issubdtype(conj.dtype, np.integer)
                    or not np.array_equal(np.sort(conj), np.arange(n))
                    or not np.array_equal(conj[conj], np.arange(n))):
                raise ValueError("conj must be an involutive permutation of the N variables")
            conj = conj.copy()
        for a in (m, conj):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "conj", conj)

    @property
    def n_vars(self) -> int:
        return self.m.shape[0]

    @property
    def dim(self) -> int:
        return 1 << self.n_vars


def _clear_bits(n: int) -> np.ndarray:
    """The (2^N, N) mask of the basis indices k whose bit i is 0."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) == 0


def _bit_rows(a: np.ndarray, i: int) -> np.ndarray:
    """The rows of a (2^N, ...) array whose index has bit i set, in index
    order, as a view of shape (2^(N - i - 1), 2^i, ...)."""
    return a.reshape(-1, 2, 1 << i, *a.shape[1:])[:, 1]


@dataclass(frozen=True)
class MultiplicationMatrices:
    """The N commuting D x D matrices A_{X_i}, D = 2^N, stored as the rows
    the fill computes; real if M is. The eigen stage does not read
    them, since the fill forms the one combination it needs as it goes
    (``combine``); they serve the critical-value matrix and tests.

    Column k of A_{X_i} is the unit vector e_{k | 2^i} when k lacks bit i,
    and those columns stay implicit. The other D/2 columns, as rows of
    A_{X_i}^T, make up ``rows``: N 2^(2N-1) entries, half of the dense
    stack, in the order of the fill (by the degree level of k, then by k,
    then by i). ``block(i)`` gathers those of one A_{X_i}^T in index order;
    ``matrix`` expands them.
    """

    system: DiagQuadSystem
    rows: np.ndarray              # shape (N D/2, D)

    @property
    def n_vars(self) -> int:
        return self.system.n_vars

    @property
    def dim(self) -> int:
        return self.system.dim

    def block(self, i: int) -> np.ndarray:
        """Rows gamma | 2^i of A_{X_i}^T, for the gammas without bit i in
        increasing order: a fresh (D/2, D) array."""
        return self.rows[_fill_plan(self.n_vars).block_rows[i]]

    def matrix(self, i: int) -> np.ndarray:
        """A_{X_i}, expanded from its block: a transposed view of a fresh
        D x D array."""
        dim = self.dim
        at = np.zeros((dim, dim), dtype=self.rows.dtype)
        rows = _bit_rows(at, i)
        rows[...] = self.block(i).reshape(rows.shape)
        gamma = np.flatnonzero(_clear_bits(self.n_vars)[:, i])
        at[gamma, gamma | (1 << i)] = 1.0
        return at.T


class Combination(NamedTuple):
    """The real form R = U^H T^T U of T^T = sum_i c_i A_{X_i}^T, for the
    weights c of one eigen seed (``_combination_weights``), read-only: all
    that the eigen stage reads. U mixes each pair k < l of conjugate basis
    monomials into (e_k + e_l)/sqrt2 and i(e_k - e_l)/sqrt2 and keeps the
    other e_k, so R = T^T when the system is real and has no pairs.
    ``conjugation_defect`` is the largest imaginary part of U^H T^T U that R
    drops, relative to max|R|, and ``nonfinite_entries`` counts the entries of
    T^T that are not finite. ``matrices`` holds the A_{X_i} when the fill kept
    them, else None."""

    system: DiagQuadSystem
    real_form: np.ndarray         # shape (D, D), float64
    conjugation_defect: float
    nonfinite_entries: int
    matrices: Optional[MultiplicationMatrices] = None


@dataclass(frozen=True)
class EigenSolution:
    xi: np.ndarray
    residual: float           # normwise residual of the polished root; inf if not finite
    multiplicity_hint: int


@dataclass(frozen=True)
class EigenSolutionSet:
    """The roots of one read-off as arrays, in the order of the eigenvectors:
    the accepted roots, each the first of the tuples merged into it, and the
    rejected tuples; ``solutions`` and ``rejected`` build them as
    ``EigenSolution`` objects on each read. ``ledger`` accounts for every
    eigenvector, and the set is ``complete`` when all 2^N roots are distinct
    accepted tuples and exactly one is at zero: x o x = M x has the simple
    root xi = 0, so a second tuple there stands in for a lost root."""

    xi: np.ndarray                # (k, N) accepted roots
    residual: np.ndarray          # (k,) normwise residuals
    multiplicity_hint: np.ndarray  # (k,) tuples merged into each root
    at_zero: np.ndarray           # (k,) bool: the root is xi = 0
    rejected_xi: np.ndarray       # (r, N) rejected tuples, multiplicity 1 each
    rejected_residual: np.ndarray  # (r,) their residuals; inf if not finite

    @property
    def ledger(self) -> Dict[str, int]:
        found = len(self.xi)
        return {"found": found, "rejected": len(self.rejected_xi),
                "merged": int(self.multiplicity_hint.sum()) - found,
                "at_zero": int(np.count_nonzero(self.at_zero))}

    @property
    def complete(self) -> bool:
        # found + rejected + merged = 2^N: all are found when none is lost
        ledger = self.ledger
        return ledger["rejected"] == ledger["merged"] == 0 and ledger["at_zero"] == 1

    @property
    def solutions(self) -> List[EigenSolution]:
        return [EigenSolution(x, r, c) for x, r, c in zip(
            self.xi, self.residual.tolist(), self.multiplicity_hint.tolist())]

    @property
    def rejected(self) -> List[EigenSolution]:
        return [EigenSolution(x, r, 1)
                for x, r in zip(self.rejected_xi, self.rejected_residual.tolist())]


class _Level(NamedTuple):
    """Index arrays of degree level L of the fill at N = n.

    The level holds row k of A_{X_j}^T for each k of popcount L and each bit
    j of k, k increasing and then j. ``ks`` (C,) are its indices, ``sets``
    (C, L) their bits. Toward level L + 1, gamma in ``ks`` multiplies its L
    rows by the entries ``a_at`` (C, T, L) of M (flat positions): its rows i
    clear in gamma and columns ``sets[gamma]``. At L = N - 1 the one clear
    row is taken twice, so that every product is a BLAS matrix product,
    which sums as the product over all N rows of M does. The addends m_ij,
    j clear, are the entries ``add_at`` (C, T, N - L) of M; they go to the
    flat positions ``spots`` of the product buffer (columns gamma | 2^j).
    ``dest`` (C (N - L),) is the row of level L + 1 that each pair
    (gamma, clear i) fills; ``step`` the gammas of one stacked product.
    """

    ks: np.ndarray
    sets: np.ndarray
    a_at: np.ndarray
    add_at: np.ndarray
    spots: np.ndarray
    dest: np.ndarray
    step: int

    @property
    def size(self) -> int:
        return self.sets.size


class _Group(NamedTuple):
    """Degree levels ``lo`` to ``hi`` - 1, whose rows ``ks`` of T^T the fill
    sums into its work rows in that order and then mixes into R at once.
    The unit entries c_j of those rows, at columns k | 2^j for j clear in k,
    lie at the flat positions ``units`` of the work rows, j in
    ``unit_bits``."""

    lo: int
    hi: int
    ks: np.ndarray
    units: np.ndarray
    unit_bits: np.ndarray


class _Plan(NamedTuple):
    """The ``_Level`` plans of levels 0..N, and where the fill keeps them.

    ``block_rows[i]`` (D/2,) are the rows, among all levels, of the rows
    gamma | 2^i of A_{X_i}^T, gamma increasing. Kept, level L starts at row
    ``kept_at[L]``; streamed, at ``streamed_at[L]`` of a buffer of ``width``
    rows, even levels at its top and odd ones at its bottom, so adjacent
    levels never overlap. ``buf`` is the size of the product buffer,
    ``most`` the largest level's count of indices. The ``groups`` of
    consecutive levels hold at most ``group_rows`` indices each.
    """

    levels: tuple
    block_rows: np.ndarray
    kept_at: tuple
    streamed_at: tuple
    width: int
    buf: int
    most: int
    groups: tuple
    group_rows: int


# Entries of the product that one step of the fill forms: bounds its
# temporaries (1 MB complex).
_BUILD_BLOCK = 1 << 16

# Entries of T^T that a group of levels sums before it is mixed into R
# (256 KB complex), unless one level holds more. Below N = 8 all of T^T is
# one group, and the fill mixes as fast as a real form of the whole T^T
# would; 2^16 raised the benchmark's random-mixed peak RSS by 1.4 MB.
_GROUP_BLOCK = 1 << 14


@lru_cache(maxsize=None)
def _fill_plan(n: int) -> _Plan:
    """The plan of the fill at N = n. It depends on n alone; the cache holds
    one plan per N <= N_CAP, read-only, as every caller shares it."""
    dim = 1 << n
    has = ~_clear_bits(n)
    popcount = has.sum(axis=1)
    by_level = np.argsort(popcount, kind="stable")
    # first[k]: the first row of k among all levels; row (j, k) follows at
    # the rank of bit j in k
    first = np.empty(dim, dtype=np.intp)
    first[by_level] = np.cumsum(popcount[by_level]) - popcount[by_level]
    where = first[:, None] + np.cumsum(has, axis=1) - 1
    ends = np.cumsum(np.bincount(popcount, minlength=n + 1)).tolist()
    levels = []
    for lv, (lo, hi) in enumerate(zip([0] + ends, ends)):
        ks = by_level[lo:hi]
        count = len(ks)
        sets = np.nonzero(has[ks])[1].reshape(count, lv)
        clear = np.nonzero(~has[ks])[1].reshape(count, n - lv)
        outs = (np.repeat(clear, 2, axis=1) if lv == n - 1 else clear)[:, :, None]
        rows = outs.shape[1]
        step = max(1, _BUILD_BLOCK // (max(rows, 1) * dim))
        grown = ks[:, None] | (1 << clear)
        block = ((np.arange(count) % step)[:, None] * rows + np.arange(rows)) * dim
        dest = where[grown, clear] - (first[by_level[hi]] if lv < n else 0)
        levels.append(_Level(
            ks=ks, sets=sets, a_at=outs * n + sets[:, None, :],
            add_at=outs * n + clear[:, None], spots=block[:, :, None] + grown[:, None, :],
            dest=dest.ravel(), step=step))
    block_rows = np.stack([where[has[:, i], i] for i in range(n)])
    counts = [len(lv.ks) for lv in levels]
    most = max(counts)
    cap = max(most, _GROUP_BLOCK // dim)
    groups, lo = [], 0
    for lv in range(1, n + 2):
        if lv == n + 1 or sum(counts[lo:lv + 1]) > cap:
            ks = by_level[ends[lo] - counts[lo]:ends[lv - 1]]
            row, bit = np.nonzero(~has[ks])
            groups.append(_Group(lo, lv, ks, units=row * dim + (ks[row] | (1 << bit)),
                                 unit_bits=bit))
            lo = lv
    for a in (block_rows, *(a for g in groups for a in g[2:]),
              *(a for lv in levels for a in lv[:-1])):
        a.setflags(write=False)
    sizes = [lv.size for lv in levels]
    width = max(a + b for a, b in zip(sizes, sizes[1:]))
    return _Plan(
        levels=tuple(levels), block_rows=block_rows,
        kept_at=tuple(np.cumsum([0] + sizes[:-1]).tolist()),
        streamed_at=tuple(width - size if lv % 2 else 0 for lv, size in enumerate(sizes)),
        width=width, buf=max(lv.step * lv.a_at.shape[1] for lv in levels[:-1]) * dim,
        most=most, groups=tuple(groups), group_rows=max(len(g.ks) for g in groups))


@lru_cache(maxsize=256)
def _pair_plan(n: int, conj: tuple):
    """The pairs k < l of conjugate basis monomials at N = n under the
    involution ``conj`` of the variables, which moves bit i of a basis
    index to bit conj(i): their columns k and l, and for each group of
    ``_fill_plan(n)`` the places of the pairs among its rows. It depends on
    n and conj alone; the cache holds the few involutions that a run meets,
    read-only."""
    partner = ~_clear_bits(n) @ (1 << np.array(conj))
    low = np.flatnonzero(np.arange(1 << n) < partner)
    place = np.empty(1 << n, dtype=np.intp)     # row of k among its group's
    rows = []
    for g in _fill_plan(n).groups:
        place[g.ks] = np.arange(len(g.ks))
        p = partner[g.ks]
        k = np.flatnonzero(g.ks < p)    # l = p[k] has k's popcount: same group
        rows.append((k, place[p[k]]))
    pairs = (low, partner[low], tuple(rows))
    for a in (*pairs[:2], *(a for r in rows for a in r)):
        a.setflags(write=False)
    return pairs


def _next_level(m: np.ndarray, lv: _Level, src: np.ndarray, dst: np.ndarray,
                buf: np.ndarray) -> np.ndarray:
    """Fill ``dst``, the rows of level L + 1, from ``src``, those of level L,
    whose plan is ``lv``, with M flattened to ``m``; returns ``dst``.

    Row gamma | 2^i of A_{X_i}^T, for gamma without bit i, is
    sum_j m_ij (row gamma of A_{X_j}^T). That row is stored when gamma has
    bit j; otherwise it is the unit row e_{gamma | 2^j}, whose m_ij goes
    onto column gamma | 2^j. The stored rows of one gamma are consecutive
    in ``src``; a block of gammas is one stacked matmul into ``buf``.
    """
    count, width = lv.sets.shape
    dim = src.shape[1]
    rows, new = lv.a_at.shape[1], lv.add_at.shape[2]
    x = src.reshape(count, width, dim)
    a, add = np.take(m, lv.a_at), np.take(m, lv.add_at)
    for lo in range(0, count, lv.step):
        hi = min(lo + lv.step, count)
        y = buf[:(hi - lo) * rows * dim].reshape(hi - lo, rows, dim)
        np.matmul(a[lo:hi], x[lo:hi], out=y)
        buf[lv.spots[lo:hi]] += add[lo:hi]
        dst[lv.dest[lo * new:hi * new]] = y[:, :new].reshape(-1, dim)
    return dst


def _transpose_rows(c: np.ndarray, lv: _Level, rows: np.ndarray, out: np.ndarray,
                    tmp: np.ndarray) -> None:
    """Rows ``lv.ks`` of sum_j c_j A_{X_j}^T without its unit entries into
    ``out``, from the level's rows: row k is summed from zero over the bits
    j of k, in increasing order, one scaled row c_j (row k of A_{X_j}^T) at
    a time, as a sum over whole blocks makes it entry by entry. ``tmp`` is
    (rows, D) work space.
    """
    count, width = lv.sets.shape
    x = rows.reshape(count, width, out.shape[1])
    w = c[lv.sets]
    out.fill(0)
    for j in range(width):
        out += np.multiply(w[:, j, None], x[:, j], out=tmp[:count])


def _carve(*specs):
    """Empty arrays of the given (shape, dtype), cut from one allocation.

    One large block is taken from the heap again on the next fill, where
    separate arrays let malloc return the heap's top to the system between
    solves and page it in anew: about 3,000 minor faults per example-1
    solve, and 200 per random N = 3..8 solve.
    """
    sizes = [prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    block = np.empty(sum(sizes), dtype=np.uint8)
    return [block[end - size:end].view(dtype).reshape(shape)
            for (shape, dtype), size, end in zip(specs, sizes, accumulate(sizes))]


def _fill(sys: DiagQuadSystem, c: np.ndarray, keep: bool):
    """The fill, one degree level at a time, in real arithmetic when M is
    real. Returns R = U^H T^T U for the weights ``c`` (``Combination``),
    its conjugation defect, the count of entries of T^T that are not finite
    and, if ``keep``, the rows of all levels (else None).

    Level L + 1 comes from level L alone, and the rows of T^T of popcount L
    too, so without ``keep`` only two adjacent levels are held. The rows k
    and conj(k) of a conjugate pair share a popcount, so the rows of T^T of
    a group of levels (``_Group``) are mixed into rows of R at once: first
    their column pairs, then their row pairs, as one complex U^H (T^T U)
    does entry by entry. A real system without pairs has R = T^T, summed in
    real arithmetic. The temporaries are bounded by ``_BUILD_BLOCK``,
    ``_GROUP_BLOCK`` or the largest level's count of indices, and are cut
    from one allocation (``_carve``).
    """
    n, dim = sys.n_vars, sys.dim
    real = not sys.m.imag.any()
    m = (sys.m.real if real else sys.m).ravel()
    plan = _fill_plan(n)
    low, high, row_pairs = _pair_plan(n, tuple(sys.conj.tolist()))
    mixed = bool(low.size) or not real      # else R = T^T, summed in float64
    # allocated before the work space: after it, the heap layout raised the
    # peak RSS of five example-1 solves from 57.4 to 64.2 MB
    r = np.empty((dim, dim))
    buf, streamed, work, tmp = _carve(
        ((plan.buf,), m.dtype),
        ((0 if keep else plan.width, dim), m.dtype),
        ((plan.group_rows, dim), complex if mixed else float),
        ((plan.most, dim), complex if mixed else float))
    store = np.empty((n * dim // 2, dim), dtype=m.dtype) if keep else streamed
    starts = plan.kept_at if keep else plan.streamed_at
    bad = 0
    # max Im and -min Im over the rows of R so far
    im_top = im_bottom = -np.inf
    # a huge M overflows; the eigen stage rejects a T^T that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (k, l) in zip(plan.groups, row_pairs):
            s = work[:len(g.ks)]
            at = 0
            for lv, start in zip(plan.levels[g.lo:g.hi], starts[g.lo:g.hi]):
                rows = store[start:start + lv.size]
                if lv.sets.size:    # level 0 has no rows
                    _next_level(m, prev, src, rows, buf)
                _transpose_rows(c, lv, rows, s[at:at + len(lv.ks)], tmp)
                at += len(lv.ks)
                prev, src = lv, rows
            s.reshape(-1)[g.units] += c[g.unit_bits]
            # the sum is finite only if every entry is, and costs half the count
            if not np.isfinite(s.sum()):
                bad += s.size - np.count_nonzero(np.isfinite(s))
            if mixed:
                if low.size:
                    _mix_pairs(s, low, high, 1j)      # T^T U
                    _mix_pairs(s.T, k, l, -1j)        # U^H (T^T U)
                im_top = np.maximum(im_top, s.imag.max())
                im_bottom = np.maximum(im_bottom, -s.imag.min())
                s = s.real
            r[g.ks] = s
        # max |Im| / max |R|; np.maximum keeps a NaN as one max over all
        # of Im would
        defect = (float(max(im_top, im_bottom) / max(r.max(), -r.min(), 1e-300))
                  if mixed else 0.0)
    r.setflags(write=False)
    if keep:
        store.setflags(write=False)
    return r, defect, int(bad), store if keep else None


def combine(sys: DiagQuadSystem, seed: int = 0, keep_matrices: bool = False) -> Combination:
    """R, the real form of T^T for the weights of ``seed``, formed level by
    level as the fill runs, so that neither T^T nor any A_{X_i} is held
    whole; with ``keep_matrices`` the same fill also keeps the A_{X_i}, for
    the critical-value matrix."""
    c = _combination_weights(sys.conj, seed)
    if not c.imag.any():
        c = c.real    # keeps T^T real for a real system
    r, defect, bad, rows = _fill(sys, c, keep_matrices)
    return Combination(system=sys, real_form=r, conjugation_defect=defect,
                       nonfinite_entries=bad,
                       matrices=None if rows is None else MultiplicationMatrices(sys, rows))


def _resid(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """F(x) = x*x - M x for each row x of a (k, N) array. The stacked matmul
    computes M x row by row with the same BLAS call as ``M @ x``."""
    return x * x - np.matmul(m, x[:, :, None])[:, :, 0]


def _norms(z: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex (k, N) array. ``np.linalg.norm``
    of one row takes two BLAS dot products, of the real and of the imaginary
    part; a stacked (1, N) by (N, 1) matmul makes the same calls."""
    re, im = (np.matmul(p[:, None, :], p[:, :, None])[:, 0, 0]
              for p in (z.real, z.imag))
    return np.sqrt(re + im)


def _newton_steps(jac: np.ndarray, f: np.ndarray):
    """Solve J_k s_k = f_k for a stack of Jacobians, one LAPACK call per
    matrix. Returns the steps and, when some J_k is exactly singular, a mask
    that is False for those (else None). ``np.linalg.solve`` raises for the
    whole stack when one member is singular, so that stack is solved again
    member by member."""
    try:
        return np.linalg.solve(jac, f[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        ok = np.ones(len(f), dtype=bool)
        step = np.zeros_like(f)
        for k in range(len(f)):
            try:
                step[k] = np.linalg.solve(jac[k], f[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return step, ok


def _polish(starts: np.ndarray, sys: DiagQuadSystem):
    """Newton-polish each column of an (N, k) array as a root of
    F(x) = x^2 - Mx.

    Eigenvector-derived tuples carry O(sqrt(eps)) noise on clustered spectra;
    a few Newton steps push well-conditioned roots to machine precision.
    Each root keeps the iterate of least residual 2-norm, its start if no
    step improves on it. A root stops after 12 steps, once its residual is
    below TOL.polish_stop (1 + ||x||^2), or when its Jacobian is exactly
    singular. All roots step together, each with the arithmetic of a
    one-root loop, so the result is bitwise that of polishing contiguous
    copies of the columns one at a time, whatever the layout of the starts
    (BLAS rounds M x for a strided x differently than for a contiguous one).

    Returns the polished roots as the rows of a (k, N) array, and F at each.
    """
    n, k = starts.shape
    diag = np.arange(n)
    m = sys.m
    x = starts.T.copy()
    f = _resid(x, m)
    best, best_f, best_r = x.copy(), f.copy(), _norms(f)
    live = np.arange(k)    # roots still iterating; x and f hold their rows
    jac = np.empty((k, n, n), dtype=complex)
    for _ in range(12):
        if not live.size:
            break
        j = jac[:live.size]
        # zeros, diagonal, then -M: starting from -M would flip signed zeros
        j.fill(0.0)
        j[:, diag, diag] = 2.0 * x
        j -= m
        step, ok = _newton_steps(j, f)
        if ok is not None:
            live, x, step = live[ok], x[ok], step[ok]
        x = x - step
        f = _resid(x, m)
        # the norms of F and of x, row by row, in one call
        norms = _norms(np.concatenate((f, x)))
        r, x_norm = norms[:len(f)], norms[len(f):]
        better = r < best_r[live]
        won = live[better]
        best[won], best_f[won], best_r[won] = x[better], f[better], r[better]
        # the one-root loop's scalar ** 2 calls pow, which can differ from an
        # array square in the last bit
        x_sq = np.array([v ** 2 for v in x_norm])
        # an iterate that is no longer finite stays so, and its residual
        # (inf or nan) never improves on the best
        go = ~(r < TOL.polish_stop * (1.0 + x_sq)) & np.isfinite(x).all(axis=1)
        if not go.all():
            live, x, f = live[go], x[go], f[go]
    return best, best_f


def _residual(xis: np.ndarray, f: np.ndarray, m_norm: float) -> np.ndarray:
    """Normwise residual ||F(xi)||_inf = ||xi*xi - M xi||_inf of each row of
    a (k, N) array, given F at the rows, relative to ||xi||^2 + ||M|| ||xi||:
    the size of the terms that cancel, so a tiny root next to large ones is
    judged on its own scale."""
    x_norm = np.abs(xis).max(axis=1)
    scale = x_norm * x_norm + m_norm * x_norm
    return np.abs(f).max(axis=1) / np.maximum(scale, 1e-300)


# Candidate pairs tested at once by ``_dedupe``: bounds its temporaries when
# many tuples share one norm (a diagonal M gives 2^(N-1) roots the same one).
_PAIR_BLOCK = 1 << 15


def _dedupe(x: np.ndarray, tol: float) -> np.ndarray:
    """Greedy clustering of the rows of a (k, N) array, in row order.

    Each row joins the first earlier representative u with
    ||s - u||_inf <= tol * max(||s||_inf, ||u||_inf, 1e-300), or becomes
    a representative itself. Returns, for each row, the number of rows in
    its cluster if it is a representative, else 0.

    Since | ||s|| - ||u|| | <= ||s - u||, only pairs whose norms lie within
    4 tol max(||s||, 1e-300) of each other can merge; the factor 4 covers
    the rounding of the computed norms. One sort of the norms gives each
    row that window, the candidate pairs in it are tested as arrays, and
    the greedy rule then runs over the pairs that are close.
    """
    k = len(x)
    norms = np.abs(x).max(axis=1)
    order = np.argsort(norms)
    sorted_norms = norms[order]
    reach = 4.0 * tol * np.maximum(norms, 1e-300)
    lo = np.searchsorted(sorted_norms, norms - reach, side="left")
    width = np.searchsorted(sorted_norms, norms + reach, side="right") - lo
    ends = np.cumsum(width)
    first = ends - width    # offset of each row's candidates among all
    counts = np.ones(k, dtype=int)
    start = 0
    while start < k:
        stop = max(start + 1, int(np.searchsorted(
            ends, first[start] + _PAIR_BLOCK, side="right")))
        s = np.repeat(np.arange(start, stop), width[start:stop])
        u = order[lo[s] + np.arange(first[start], ends[stop - 1]) - first[s]]
        keep = u < s
        s, u = s[keep], u[keep]
        gap = np.abs(x[s] - x[u]).max(axis=1)
        close = gap <= tol * np.maximum(np.maximum(norms[u], norms[s]), 1e-300)
        s, u = s[close], u[close]
        # each row's close pairs in order of their earlier member; those
        # before it are settled already
        for p in np.lexsort((u, s)):
            if counts[s[p]] and counts[u[p]]:
                counts[u[p]] += 1
                counts[s[p]] = 0
        start = stop
    return counts


def _combination_weights(conj: np.ndarray, seed: int) -> np.ndarray:
    """The weights c of T = sum c_i A_{X_i}, with c_conj(p) = conj(c_p).

    One standard normal draw g per variable: c_p = g_p for a fixed variable,
    and c_p = g_p + i g_q, c_q = g_p - i g_q for a pair p < q = conj(p). With
    the identity ``conj`` this is the real draw g itself.
    """
    g = np.random.default_rng(seed).standard_normal(len(conj))
    c = g.astype(complex)
    low = np.flatnonzero(np.arange(len(conj)) < conj)
    c[low] += 1j * g[conj[low]]
    c[conj[low]] = np.conj(c[low])
    return c


def _mix_pairs(x: np.ndarray, k: np.ndarray, l: np.ndarray, phase: complex) -> None:
    """Columns k, l of x become (x_k + x_l)/sqrt2 and phase (x_k - x_l)/sqrt2."""
    h = np.sqrt(0.5)
    # scaled in place: a fresh temporary per step raised the peak RSS of
    # repeated N = 9 solves by 4 MB
    a = x[:, k]
    a *= h
    b = x[:, l]
    b *= h
    x[:, k] = a + b
    a -= b
    a *= phase
    x[:, l] = a


def _evaluation_rows(w: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of v = U w, for U of ``Combination``, given the
    conjugate monomial q of each: O(len(rows) D)."""
    h = np.sqrt(0.5)
    v = w[rows].astype(complex)
    low, high = rows < q, rows > q
    v[low] = (w[rows[low]] + 1j * w[q[low]]) * h
    v[high] = (w[q[high]] - 1j * w[rows[high]]) * h
    return v


def common_eigen_solutions(comb: Combination) -> EigenSolutionSet:
    """All simultaneous eigenvalue tuples of the A_{X_i}.

    One eigen-decomposition of T^T, where T = sum c_i A_{X_i} is the random
    combination of ``comb``. A_{X_i}^T u = xi_i u holds for the evaluation
    vector u = (b_k(xi))_k of every root xi, and a generic combination
    separates the roots, so every eigenvector of T^T is an evaluation
    vector and xi_i = u[2^i] / u[0].

    The weights respect the system's conjugation, so T^T is similar to the
    real matrix R of ``comb``, whose eigenvectors ``_read_off`` maps back;
    when R drops an imaginary part above ``TOL.conjugation``, relative to
    max|R|, it raises ``ConjugationDefectError``.

    The finite tuples are Newton-polished as one (2^N, N) array
    (``_polish``), bitwise as if one at a time. A tuple is rejected when it is
    not finite or its normwise residual (``_residual``) exceeds
    ``TOL.eig_residual``. Accepted tuples closer than ``TOL.merge`` are merged
    (``_dedupe``). A root is at zero when its size is at most
    ``TOL.zero_solution`` (1 + the largest root's size).
    """
    sys = comb.system
    q = _read_off(comb)
    finite = np.isfinite(q).all(axis=0)
    # a column that is not finite is rejected as it is; a zero start in its
    # place keeps the batch finite
    xis, f = _polish(np.where(finite, q, 0.0), sys)
    residual = np.where(finite, _residual(xis, f, np.linalg.norm(sys.m, np.inf)), np.inf)
    xis[~finite] = q.T[~finite]
    ok = residual <= TOL.eig_residual
    counts = _dedupe(xis[ok], TOL.merge)
    rep = counts > 0
    roots = xis[ok][rep]
    sizes = np.abs(roots).max(axis=1)
    return EigenSolutionSet(xi=roots, residual=residual[ok][rep], multiplicity_hint=counts[rep],
                            at_zero=sizes <= TOL.zero_solution * (1.0 + sizes.max(initial=0.0)),
                            rejected_xi=xis[~ok], rejected_residual=residual[~ok])


def _read_off(comb: Combination):
    """The tuples xi_i = u[2^i] / u[0] of all 2^N eigenvectors u of T^T, one
    per column of an (N, 2^N) array; the u come from ``eig`` of R, mapped
    back by U.

    A T^T that is not finite (the fill overflowed, as a huge input scale
    makes it) raises ``NumericalError`` before ``eig`` would, and before the
    conjugation defect of ``comb`` is tested against ``TOL.conjugation``."""
    sys, bad, defect = comb.system, comb.nonfinite_entries, comb.conjugation_defect
    if bad:
        raise NumericalError(
            f"{bad} entries of the combination of multiplication matrices are "
            "not finite: the entries of M are too large to multiply out "
            "(rescale the input)",
            diagnostics={"nonfinite_entries": bad,
                         "max_abs_m": float(np.abs(sys.m).max())},
        )
    if defect > TOL.conjugation:
        raise ConjugationDefectError(
            f"conjugation defect {defect:.3e} exceeds tolerance "
            f"{TOL.conjugation:.1e}: the multiplication matrices do not "
            "respect the declared conjugation of the variables",
            diagnostics={"conjugation_defect": defect},
        )
    _, w = np.linalg.eig(comb.real_form)
    # rows 1 and x_i; the conjugate of x_i is x_conj(i)
    rows = np.concatenate(([0], 1 << np.arange(sys.n_vars)))
    v = _evaluation_rows(w, rows, np.concatenate(([0], 1 << sys.conj)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return v[1:] / v[0]


def build_critical_value_matrix(
    mm: MultiplicationMatrices, weights: np.ndarray
) -> np.ndarray:
    """A_F = sum_i weights_i A_{X_i}^3, expanding one A_{X_i} at a time;
    float64 when the weights and the blocks are real.

    Its eigenvalues are the values of the weighted cubic at every solution,
    with the quotient-ring multiplicity structure. A huge input scale
    overflows it quietly; ``solve_reduction`` rejects an A_F that is not
    finite.
    """
    weights = np.asarray(weights, dtype=complex)
    if not weights.imag.any():
        weights = weights.real
    dim = mm.dim
    out = np.zeros((dim, dim), dtype=np.result_type(weights, mm.rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(mm.n_vars):
            if weights[i] != 0:
                a = mm.matrix(i)
                out += weights[i] * (a @ a @ a)
    return out
