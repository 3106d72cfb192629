"""Commuting multiplication matrices on the 2^N quotient space.

A diagonal-quadratic system is x_i^2 = m_i . x + mu_i, one equation per
variable. Its generators form a Groebner basis outright (the leading terms
x_i^2 are pairwise coprime), so the quotient ring has the 2^N square-free
monomials as a basis. Bit convention: bit i of a basis index corresponds to
variable x_i (0-based); index 0 is the constant monomial.

Column k of A_{X_i} holds the square-free normal form of x_i * b_k, where
b_k is the k-th basis monomial. If b_k lacks x_i, x_i * b_k is itself
square-free and the column is exactly the unit vector e_{k | 2^i}; only the
D/2 columns with bit i set, the block B_i, carry numbers, as the rows of
B_i^T. There one substitution x_i^2 -> m_i . x + mu_i applies, whose result
is a combination of the columns b_k / x_i of the A_{X_j}, all of degree one
less. So the fill runs level by level in the degree (popcount) of k: each
index gamma of one level, with its stored rows of that level (row gamma of
A_{X_j}^T for each bit j of gamma), gives row gamma | 2^i of A_{X_i}^T for
each clear bit i by one small BLAS product, in real arithmetic when M and mu
are real; the products of a block of gammas are one stacked matmul. Row
gamma of A_{X_j}^T for a clear bit j is the unit row e_{gamma | 2^j}, whose
coefficient m_ij is added at column gamma | 2^j. The entries are bit for bit
those of one product of all N rows of M with all N rows gamma, unit rows as
zero rows. The matrices commute by construction, since the leading terms
are coprime; a defective fill shows up as missing or spurious roots, which
the root ledger of ``reduce.solve_reduction`` turns into a numerical error.

The roots are read off the eigenvectors of T^T for a random combination
T = sum c_i A_{X_i}: each is the evaluation vector (b_k(xi))_k of one root,
so xi_i is its entry 2^i over its entry 0. Row k of T^T is
sum_j c_j (row k of A_{X_j}^T) over the bits j of k, plus the unit entries
c_j at columns k | 2^j, so it is final once level popcount(k) is built:
``combine`` forms T^T as the fill runs and holds only two adjacent levels
at a time, never the A_{X_i}, which it keeps only on request (for the
critical-value matrix). The system is real up to the conjugation of its
variables (for the H2 problem, the pairing of conjugate poles), and the
weights c respect it, so T^T is unitarily similar to a real matrix R
through a sparse U that mixes each pair of conjugate monomials.
The eigenvectors come from a real ``eig`` of R, and only the rows 0 and 2^i
of U times them are formed. The 2^N tuples read off them are then handled
as one array: all are Newton-polished together, one LAPACK solve per root
and step on a stack of N x N Jacobians, with the arithmetic of a one-root
loop; their residuals are row reductions; and the merge of near-equal roots
tests only the pairs whose norms lie close enough, found by one sort. Every
one of the 2^N eigenvectors is accounted for, as a root or as a rejection,
so a caller can tell when roots are missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import prod
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import BasisSizeError, ConjugationDefectError, NumericalError
from .tolerances import TOL

# Largest N accepted; the CLI's --cap may not exceed it either.
N_CAP = 14


@dataclass(frozen=True)
class DiagQuadSystem:
    """The pair (M, mu) defining x_i^2 = m_i . x + mu_i, and the involution
    ``conj`` of the variables under which the system is real.

    ``conj`` defaults to the identity. A system with conj(m_ij) =
    m_{conj(i), conj(j)} and conj(mu_i) = mu_{conj(i)} maps each root xi to
    the root conj(xi)[conj]; ``common_eigen_solutions`` relies on it and
    raises ``ConjugationDefectError`` when the matrices do not respect it.
    """

    m: np.ndarray
    mu: np.ndarray
    conj: np.ndarray

    def __init__(self, m, mu=None, conj=None):
        m = np.atleast_2d(np.asarray(m, dtype=complex))
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("M must be square")
        if n > N_CAP:
            raise BasisSizeError(f"basis too large: N={n} exceeds cap {N_CAP}")
        if mu is None:
            mu = np.zeros(n, dtype=complex)
        else:
            mu = np.atleast_1d(np.asarray(mu, dtype=complex))
            if mu.shape != (n,):
                raise ValueError("mu must have length N")
        if conj is None:
            conj = np.arange(n)
        else:
            conj = np.asarray(conj)
            if (conj.shape != (n,) or not np.issubdtype(conj.dtype, np.integer)
                    or not np.array_equal(np.sort(conj), np.arange(n))
                    or not np.array_equal(conj[conj], np.arange(n))):
                raise ValueError("conj must be an involutive permutation of the N variables")
            conj = conj.copy()
        for a in (m, mu, conj):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "conj", conj)

    @property
    def n_vars(self) -> int:
        return self.m.shape[0]

    @property
    def dim(self) -> int:
        return 1 << self.n_vars

    def basis_conj(self) -> np.ndarray:
        """The involution of the basis monomials that ``conj`` induces: bit i
        of index k moves to bit conj(i)."""
        bits = (np.arange(self.dim)[:, None] >> np.arange(self.n_vars)) & 1
        return bits @ (1 << self.conj)


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
    the fill computes; real if M and mu are. The eigen stage does not read
    them, since the fill forms the one combination it needs as it goes
    (``combine``); they serve the critical-value matrix and tests.

    Column k of A_{X_i} is the unit vector e_{k | 2^i} when k lacks bit i,
    and those columns stay implicit. The other D/2 columns, as rows of
    A_{X_i}^T, make up ``rows``: N 2^(2N-1) entries, half of the dense
    stack, in the order of the fill (by the degree level of k, then by k,
    then by i). ``block(i)`` gathers those of one A_{X_i}^T in index order;
    ``matrix`` and ``matrices`` expand them.
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

    @property
    def matrices(self) -> np.ndarray:
        """The (N, D, D) stack of all A_{X_i}, expanded afresh on each access."""
        return np.stack([self.matrix(i) for i in range(self.n_vars)])


class Combination(NamedTuple):
    """T^T = sum_i c_i A_{X_i}^T for the weights c of one eigen seed
    (``_combination_weights``), read-only: all that the eigen stage reads.
    ``matrices`` holds the A_{X_i} when the fill kept them, else None."""

    system: DiagQuadSystem
    transpose: np.ndarray         # shape (D, D)
    matrices: Optional[MultiplicationMatrices] = None


@dataclass(frozen=True)
class EigenSolution:
    xi: np.ndarray
    residual: float           # normwise residual of the polished root; inf if not finite
    multiplicity_hint: int


@dataclass(frozen=True)
class EigenSolutionSet:
    solutions: List[EigenSolution]
    rejected: List[EigenSolution]
    conjugation_defect: float     # imaginary part dropped by ``_real_form``


class _Level(NamedTuple):
    """Index arrays of degree level L of the fill at N = n.

    The level holds row k of A_{X_j}^T for each k of popcount L and each bit
    j of k, k increasing and then j. ``ks`` (C,) are its indices, ``sets``
    (C, L) their bits. Toward level L + 1, gamma in ``ks`` multiplies its L
    rows by the entries ``a_at`` (C, T, L) of [mu | M] (flat positions):
    M's rows i clear in gamma and columns ``sets[gamma]``. At L = N - 1 the
    one clear row is taken twice, so that every product is a BLAS matrix
    product, which sums as the product over all N rows of M does. The
    addends mu_i and m_ij, j clear, are the entries ``add_at`` of [mu | M];
    they go to the flat positions ``spots`` of the product buffer (columns
    gamma and gamma | 2^j). ``dest`` (C (N - L),) is the row of level L + 1
    that each pair (gamma, clear i) fills; ``step`` the gammas of one
    stacked product.
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


class _Plan(NamedTuple):
    """The ``_Level`` plans of levels 0..N, and where the fill keeps them.

    ``block_rows[i]`` (D/2,) are the rows, among all levels, of the rows
    gamma | 2^i of A_{X_i}^T, gamma increasing. Kept, level L starts at row
    ``kept_at[L]``; streamed, at ``streamed_at[L]`` of a buffer of ``width``
    rows, even levels at its top and odd ones at its bottom, so adjacent
    levels never overlap. ``buf`` is the size of the product buffer,
    ``most`` the largest level's count of indices. The unit entries of T^T
    are c_j at the flat positions ``units`` (k D + k | 2^j, j clear in k),
    j in ``unit_bits``.
    """

    levels: tuple
    block_rows: np.ndarray
    kept_at: tuple
    streamed_at: tuple
    width: int
    buf: int
    most: int
    units: np.ndarray
    unit_bits: np.ndarray


# Entries of the product that one step of the fill forms: bounds its
# temporaries (1 MB complex).
_BUILD_BLOCK = 1 << 16


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
        cols = np.hstack((ks[:, None], grown))
        block = ((np.arange(count) % step)[:, None] * rows + np.arange(rows)) * dim
        dest = where[grown, clear] - (first[by_level[hi]] if lv < n else 0)
        levels.append(_Level(
            ks=ks, sets=sets, a_at=outs * (n + 1) + sets[:, None, :] + 1,
            add_at=outs * (n + 1) + np.hstack((np.zeros((count, 1), np.intp), clear + 1))[:, None],
            spots=block[:, :, None] + cols[:, None, :], dest=dest.ravel(), step=step))
    k, bits = np.nonzero(~has)
    units, unit_bits = k * dim + (k | (1 << bits)), bits
    block_rows = np.stack([where[has[:, i], i] for i in range(n)])
    for a in (block_rows, units, unit_bits, *(a for lv in levels for a in lv[:-1])):
        a.setflags(write=False)
    sizes = [lv.size for lv in levels]
    width = max(a + b for a, b in zip(sizes, sizes[1:]))
    return _Plan(
        levels=tuple(levels), block_rows=block_rows,
        kept_at=tuple(np.cumsum([0] + sizes[:-1]).tolist()),
        streamed_at=tuple(width - size if lv % 2 else 0 for lv, size in enumerate(sizes)),
        width=width, buf=max(lv.step * lv.a_at.shape[1] for lv in levels[:-1]) * dim,
        most=max(len(lv.ks) for lv in levels), units=units, unit_bits=unit_bits)


def _next_level(ext: np.ndarray, lv: _Level, src: np.ndarray, dst: np.ndarray,
                buf: np.ndarray) -> np.ndarray:
    """Fill ``dst``, the rows of level L + 1, from ``src``, those of level L,
    whose plan is ``lv``, with ext = [mu | M]; returns ``dst``.

    Row gamma | 2^i of A_{X_i}^T, for gamma without bit i, is mu_i e_gamma
    plus sum_j m_ij (row gamma of A_{X_j}^T). That row is stored when gamma
    has bit j; otherwise it is the unit row e_{gamma | 2^j}, whose m_ij goes
    onto column gamma | 2^j. The stored rows of one gamma are consecutive
    in ``src``; a block of gammas is one stacked matmul into ``buf``.
    """
    count, width = lv.sets.shape
    dim = src.shape[1]
    rows, new = lv.a_at.shape[1], lv.add_at.shape[2] - 1
    x = src.reshape(count, width, dim)
    a, add = np.take(ext, lv.a_at), np.take(ext, lv.add_at)
    for lo in range(0, count, lv.step):
        hi = min(lo + lv.step, count)
        y = buf[:(hi - lo) * rows * dim].reshape(hi - lo, rows, dim)
        np.matmul(a[lo:hi], x[lo:hi], out=y)
        buf[lv.spots[lo:hi]] += add[lo:hi]
        dst[lv.dest[lo * new:hi * new]] = y[:, :new].reshape(-1, dim)
    return dst


def _transpose_rows(t: np.ndarray, c: np.ndarray, lv: _Level, rows: np.ndarray,
                    acc: np.ndarray, tmp: np.ndarray) -> None:
    """Rows ``lv.ks`` of sum_j c_j A_{X_j}^T without its unit entries, from
    the level's rows: row k is summed from zero over the bits j of k, in
    increasing order, one scaled row c_j (row k of A_{X_j}^T) at a time, as
    a sum over whole blocks makes it entry by entry. ``acc`` and ``tmp``
    are (rows, D) work space.
    """
    count, width = lv.sets.shape
    x = rows.reshape(count, width, t.shape[1])
    w = c[lv.sets]
    s = acc[:count]
    s.fill(0)
    for j in range(width):
        s += np.multiply(w[:, j, None], x[:, j], out=tmp[:count])
    t[lv.ks] = s


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


def _fill(sys: DiagQuadSystem, c: Optional[np.ndarray], keep: bool):
    """The fill, one degree level at a time, in real arithmetic when M and mu
    are real. Returns T^T for the weights ``c`` (None if ``c`` is None) and,
    if ``keep``, the rows of all levels (else None).

    Level L + 1 comes from level L alone, and the rows of T^T of popcount L
    too, so without ``keep`` only two adjacent levels are held. The
    unit entries of T^T go on top of the sums at the end. The other
    temporaries are bounded by ``_BUILD_BLOCK`` or by the largest level's
    count of indices, and are cut from one allocation (``_carve``).
    """
    n, dim = sys.n_vars, sys.dim
    real = not (sys.m.imag.any() or sys.mu.imag.any())
    m, mu = (sys.m.real, sys.mu.real) if real else (sys.m, sys.mu)
    ext = np.concatenate((mu[:, None], m), axis=1)
    plan = _fill_plan(n)
    t = None if c is None else np.empty((dim, dim), dtype=np.result_type(c, ext))
    buf, streamed, (acc, tmp) = _carve(
        ((plan.buf,), ext.dtype),
        ((0 if keep else plan.width, dim), ext.dtype),
        ((2, 0 if t is None else plan.most, dim), ext.dtype if t is None else t.dtype))
    store = np.empty((n * dim // 2, dim), dtype=ext.dtype) if keep else streamed
    # a huge M overflows; the eigen stage rejects a T^T that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for lv, start in zip(plan.levels, plan.kept_at if keep else plan.streamed_at):
            rows = store[start:start + lv.size]
            if lv.sets.size:    # level 0 has no rows
                _next_level(ext, prev, src, rows, buf)
            if t is not None:
                _transpose_rows(t, c, lv, rows, acc, tmp)
            prev, src = lv, rows
        if t is not None:
            t.reshape(-1)[plan.units] += c[plan.unit_bits]
    if t is not None:
        t.setflags(write=False)
    if not keep:
        return t, None
    store.setflags(write=False)
    return t, store


def build_multiplication_matrices(sys: DiagQuadSystem) -> MultiplicationMatrices:
    """Construct the rows of all A_{X_i}: float64 when M and mu are real,
    else complex128."""
    return MultiplicationMatrices(system=sys, rows=_fill(sys, None, keep=True)[1])


def combine(sys: DiagQuadSystem, seed: int = 0, keep_matrices: bool = False) -> Combination:
    """T^T for the weights of ``seed``, formed level by level as the fill
    runs, so that no A_{X_i} is held whole; with ``keep_matrices`` the same
    fill also keeps them all, for the critical-value matrix."""
    c = _combination_weights(sys.conj, seed)
    if not c.imag.any():
        c = c.real    # keeps T^T real for a real system
    t, rows = _fill(sys, c, keep_matrices)
    return Combination(system=sys, transpose=t,
                       matrices=None if rows is None else MultiplicationMatrices(sys, rows))


def _resid(x: np.ndarray, sys: DiagQuadSystem) -> np.ndarray:
    """F(x) = x*x - M x - mu for each row x of a (k, N) array. The stacked
    matmul computes M x row by row with the same BLAS call as ``M @ x``."""
    return x * x - np.matmul(sys.m, x[:, :, None])[:, :, 0] - sys.mu


def _norms(z: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex (k, N) array. ``np.linalg.norm``
    of one row takes two BLAS dot products, of the real and of the imaginary
    part; a stacked (1, N) by (N, 1) matmul makes the same calls."""
    re, im = (np.matmul(p[:, None, :], p[:, :, None])[:, 0, 0]
              for p in (z.real, z.imag))
    return np.sqrt(re + im)


def _newton_steps(jac: np.ndarray, f: np.ndarray):
    """Solve J_k s_k = f_k for a stack of Jacobians, one LAPACK call per
    matrix. Returns the steps and a mask that is False where J_k is exactly
    singular. ``np.linalg.solve`` raises for the whole stack when one member
    is singular, so that stack is solved again member by member."""
    ok = np.ones(len(f), dtype=bool)
    try:
        return np.linalg.solve(jac, f[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        step = np.zeros_like(f)
        for k in range(len(f)):
            try:
                step[k] = np.linalg.solve(jac[k], f[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return step, ok


def _polish(starts: np.ndarray, sys: DiagQuadSystem):
    """Newton-polish each column of an (N, k) array as a root of
    F(x) = x^2 - Mx - mu.

    Eigenvector-derived tuples carry O(sqrt(eps)) noise on clustered spectra;
    a few Newton steps push well-conditioned roots to machine precision.
    Each root keeps the iterate of least residual 2-norm, its start if no
    step improves on it. A root stops after 12 steps, once its residual is
    below TOL.polish_stop (1 + ||x||^2), or when its Jacobian is exactly
    singular. All roots step together, each with the arithmetic of a
    one-root loop, so the result is bitwise that of polishing the columns
    one at a time. F at a start is computed on the column in place: BLAS
    rounds M x for a strided x differently than for a contiguous one.

    Returns the polished roots as the rows of a (k, N) array, and F at each.
    """
    n, k = starts.shape
    diag = np.arange(n)
    best_f = _resid(starts.T, sys)
    best_r = _norms(best_f)
    x = starts.T.copy()
    best = x.copy()
    f = _resid(x, sys)
    live = np.arange(k)    # roots still iterating; x and f hold their rows
    jac = np.empty((k, n, n), dtype=complex)
    for _ in range(12):
        if not live.size:
            break
        j = jac[:live.size]
        # zeros, diagonal, then -M: starting from -M would flip signed zeros
        j.fill(0.0)
        j[:, diag, diag] = 2.0 * x
        j -= sys.m
        step, ok = _newton_steps(j, f)
        if not ok.all():
            live, x, step = live[ok], x[ok], step[ok]
        x = x - step
        f = _resid(x, sys)
        r = _norms(f)
        better = r < best_r[live]
        won = live[better]
        best[won], best_f[won], best_r[won] = x[better], f[better], r[better]
        # the one-root loop's scalar ** 2 calls pow, which can differ from an
        # array square in the last bit
        x_sq = np.array([v ** 2 for v in _norms(x)])
        # an iterate that is no longer finite stays so, and its residual
        # (inf or nan) never improves on the best
        go = ~(r < TOL.polish_stop * (1.0 + x_sq)) & np.isfinite(x).all(axis=1)
        live, x, f = live[go], x[go], f[go]
    return best, best_f


def _residual(xis: np.ndarray, f: np.ndarray, sys: DiagQuadSystem,
              m_norm: float) -> np.ndarray:
    """Normwise residual ||F(xi)||_inf = ||xi*xi - M xi - mu||_inf of each row
    of a (k, N) array, given F at the rows, relative to
    ||xi||^2 + ||M|| ||xi|| + ||mu||: the size of the terms that cancel, so a
    tiny root next to large ones is judged on its own scale."""
    x_norm = np.abs(xis).max(axis=1)
    scale = x_norm * x_norm + m_norm * x_norm + np.linalg.norm(sys.mu, np.inf)
    return np.abs(f).max(axis=1) / np.maximum(scale, 1e-300)


# Candidate pairs tested at once by ``_dedupe``: bounds its temporaries when
# many tuples share one norm (a diagonal M gives 2^(N-1) roots the same one).
_PAIR_BLOCK = 1 << 15


def _dedupe(solutions):
    """Greedy clustering in input order.

    Each tuple joins the first earlier representative u with
    ||s - u||_inf <= TOL.merge * max(||s||_inf, ||u||_inf, 1e-300), or becomes
    a representative itself; multiplicity_hint counts the members.

    Since | ||s|| - ||u|| | <= ||s - u||, only pairs whose norms lie within
    4 TOL.merge max(||s||, 1e-300) of each other can merge; the factor 4 covers
    the rounding of the computed norms. One sort of the norms gives each
    tuple that window, the candidate pairs in it are tested as arrays, and
    the greedy rule then runs over the pairs that are close.
    """
    if not solutions:
        return []
    x = np.array([s.xi for s in solutions])
    k = len(x)
    norms = np.abs(x).max(axis=1)
    order = np.argsort(norms)
    sorted_norms = norms[order]
    reach = 4.0 * TOL.merge * np.maximum(norms, 1e-300)
    lo = np.searchsorted(sorted_norms, norms - reach, side="left")
    width = np.searchsorted(sorted_norms, norms + reach, side="right") - lo
    ends = np.cumsum(width)
    first = ends - width    # offset of each tuple's candidates among all
    counts = np.ones(k, dtype=int)
    is_rep = np.ones(k, dtype=bool)
    start = 0
    while start < k:
        stop = max(start + 1, int(np.searchsorted(
            ends, first[start] + _PAIR_BLOCK, side="right")))
        s = np.repeat(np.arange(start, stop), width[start:stop])
        u = order[lo[s] + np.arange(first[start], ends[stop - 1]) - first[s]]
        keep = u < s
        s, u = s[keep], u[keep]
        gap = np.abs(x[s] - x[u]).max(axis=1)
        close = gap <= TOL.merge * np.maximum(np.maximum(norms[u], norms[s]), 1e-300)
        s, u = s[close], u[close]
        # each tuple's close pairs in order of their earlier member; those
        # before it are settled already
        for p in np.lexsort((u, s)):
            if is_rep[s[p]] and is_rep[u[p]]:
                counts[u[p]] += 1
                is_rep[s[p]] = False
        start = stop
    return [
        EigenSolution(sol.xi, sol.residual, multiplicity_hint=int(c))
        for sol, c, rep in zip(solutions, counts, is_rep) if rep
    ]


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


def _real_form(s: np.ndarray, partner: np.ndarray):
    """R = U^H S U, real when conj(S) = P S P for the permutation
    P e_k = e_{partner[k]}, and the imaginary part it drops.

    U keeps e_k where partner[k] = k, and takes a pair k < l = partner[k] to
    (e_k + e_l)/sqrt2 in column k and i(e_k - e_l)/sqrt2 in column l. Then
    conj(U) = P U, so conj(R) = U^H P conj(S) P U = R. Returns R and
    max|Im(U^H S U)| / max|R|, which is rounding error when S respects P.
    A real ``s`` without pairs is R itself; otherwise S U is formed in one
    complex copy of ``s``.
    """
    k = np.flatnonzero(np.arange(len(partner)) < partner)
    l = partner[k]
    if not k.size and not np.iscomplexobj(s):
        return s, 0.0
    s = s.astype(complex)
    _mix_pairs(s, k, l, 1j)        # S U
    _mix_pairs(s.T, k, l, -1j)     # U^H (S U), on the rows
    r = s.real.copy()
    # max |.| without a D x D temporary
    im = max(s.imag.max(), -s.imag.min())
    return r, float(im / max(r.max(), -r.min(), 1e-300))


def _evaluation_rows(w: np.ndarray, rows: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of v = U w, for U of ``_real_form``: O(len(rows) D)."""
    h = np.sqrt(0.5)
    q = partner[rows]
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

    The weights respect the system's conjugation, so conj(T) = P T P for the
    permutation P of the basis monomials that it induces, and T^T is
    similar to the real matrix R of ``_real_form``. A real ``eig`` of R gives
    the eigenvectors w, and only the rows 0 and 2^i of u = U w are formed.
    When R drops an imaginary part above ``TOL.conjugation``, relative to
    max|R|, the matrices do not respect the declared conjugation and
    ``ConjugationDefectError`` is raised.

    The finite tuples are Newton-polished as one (2^N, N) array
    (``_polish``), bitwise as if one at a time. A tuple is rejected when it is
    not finite or its normwise residual (``_residual``) exceeds
    ``TOL.eig_residual``. Accepted tuples closer than ``TOL.merge`` are merged
    (``_dedupe``). Every one of the 2^N eigenvectors ends up in
    ``solutions`` (counted by multiplicity_hint) or in ``rejected``, each
    list in the order of the eigenvectors.
    """
    sys = comb.system
    q, defect = _read_off(comb)
    finite = np.isfinite(q).all(axis=0)
    # a column that is not finite is rejected as it is; a zero start in its
    # place keeps the batch finite
    xis, f = _polish(np.where(finite, q, 0.0), sys)
    residual = np.where(finite, _residual(xis, f, sys, np.linalg.norm(sys.m, np.inf)),
                        np.inf)
    xis[~finite] = q.T[~finite]
    accepted, rejected = [], []
    for xi, res in zip(xis, residual.tolist()):
        (accepted if res <= TOL.eig_residual else rejected).append(
            EigenSolution(xi, res, multiplicity_hint=1))
    return EigenSolutionSet(solutions=_dedupe(accepted), rejected=rejected,
                            conjugation_defect=defect)


def _read_off(comb: Combination):
    """The tuples xi_i = u[2^i] / u[0] of all 2^N eigenvectors u of T^T, one
    per column of an (N, 2^N) array, and the conjugation defect of R.

    A T^T that is not finite (the fill overflowed, as a huge input scale
    makes it) raises ``NumericalError`` before ``eig`` would."""
    sys, t = comb.system, comb.transpose
    if not np.isfinite(t).all():
        bad = int(np.count_nonzero(~np.isfinite(t)))
        raise NumericalError(
            f"{bad} entries of the combination of multiplication matrices are "
            "not finite: the entries of M are too large to multiply out "
            "(rescale the input)",
            diagnostics={"nonfinite_entries": bad,
                         "max_abs_m": float(np.abs(sys.m).max())},
        )
    partner = sys.basis_conj()
    r, defect = _real_form(t, partner)
    if defect > TOL.conjugation:
        raise ConjugationDefectError(
            f"conjugation defect {defect:.3e} exceeds tolerance "
            f"{TOL.conjugation:.1e}: the multiplication matrices do not "
            "respect the declared conjugation of the variables",
            diagnostics={"conjugation_defect": defect},
        )
    _, w = np.linalg.eig(r)
    rows = np.concatenate(([0], 1 << np.arange(sys.n_vars)))
    v = _evaluation_rows(w, rows, partner)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v[1:] / v[0], defect


def build_critical_value_matrix(
    mm: MultiplicationMatrices, weights: np.ndarray
) -> np.ndarray:
    """A_F = sum_i weights_i A_{X_i}^3, expanding one A_{X_i} at a time;
    float64 when the weights and the blocks are real.

    Its eigenvalues are the values of the weighted cubic at every solution,
    with the quotient-ring multiplicity structure.
    """
    weights = np.asarray(weights, dtype=complex)
    if not weights.imag.any():
        weights = weights.real
    dim = mm.dim
    out = np.zeros((dim, dim), dtype=np.result_type(weights, mm.rows))
    for i in range(mm.n_vars):
        if weights[i] != 0:
            a = mm.matrix(i)
            out += weights[i] * (a @ a @ a)
    return out
