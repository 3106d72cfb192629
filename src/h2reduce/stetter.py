"""Commuting multiplication matrices on the 2^N quotient space.

A diagonal-quadratic system is x_i^2 = m_i . x + mu_i, one equation per
variable. Its generators form a Groebner basis outright (the leading terms
x_i^2 are pairwise coprime), so the quotient ring has the 2^N square-free
monomials as a basis. Bit convention: bit i of a basis index corresponds to
variable x_i (0-based); index 0 is the constant monomial.

Column k of A_{X_i} holds the square-free normal form of x_i * b_k, where
b_k is the k-th basis monomial. If b_k lacks x_i, x_i * b_k is itself
square-free and the column is exactly the unit vector e_{k | 2^i}; only the
D/2 columns with bit i set, the block B_i, carry numbers, and only they are
stored, as the rows of B_i^T. There one substitution x_i^2 -> m_i . x + mu_i
applies, whose result is a combination of the columns b_k / x_i of the
A_{X_j}, all of degree one less. So the blocks are filled level by level in
the degree (popcount) of k: for a block of rows gamma of one level, one BLAS
product of M with the rows gamma of every A_{X_j}^T gives the rows
gamma | 2^i of every A_{X_i}^T at once, in real arithmetic when M and mu are
real. A row gamma of A_{X_j}^T is a stored row when gamma has bit j, and
otherwise the unit row e_{gamma | 2^j}, which enters the product as the
coefficient m_ij added at column gamma | 2^j. The matrices commute by
construction, since the leading terms are coprime; a defective build shows
up as missing or spurious roots, which the root ledger of
``reduce.solve_reduction`` turns into a numerical error.

The roots are read off the eigenvectors of T^T for a random combination
T = sum c_i A_{X_i}: each is the evaluation vector (b_k(xi))_k of one root,
so xi_i is its entry 2^i over its entry 0. T^T is summed from the blocks,
its N D / 2 unit entries added on top. The system is real up to the
conjugation of its variables (for the H2 problem, the pairing of conjugate
poles), and the weights c respect it, so T^T is unitarily similar to a real
matrix R through a sparse U that mixes each pair of conjugate monomials.
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
from typing import List, Optional

import numpy as np

from .errors import BasisSizeError, ConjugationDefectError
from .tolerances import Tolerances

# Largest N accepted; the CLI's --cap may not exceed it either.
N_CAP = 14

# Polished roots closer than this, relative to the larger of the two, are
# one root. Newton polishing leaves well-conditioned roots accurate to near
# machine precision, while distinct roots of example 1 lie as close as 1.9e-6
# relative.
MERGE = 1e-9


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
    """The N commuting D x D matrices A_{X_i}, D = 2^N, stored as the blocks
    the build computes; real if M and mu are.

    Column k of A_{X_i} is the unit vector e_{k | 2^i} when k lacks bit i,
    and those columns stay implicit. ``blocks[i]`` holds the other D/2
    columns as rows: row r is column gamma | 2^i of A_{X_i}, for the r-th
    gamma without bit i in increasing order. So the N blocks take
    N 2^(2N-1) entries, half of the dense stack. ``matrix`` and
    ``matrices`` expand them, for the critical-value matrix and for tests.
    """

    system: DiagQuadSystem
    blocks: np.ndarray            # shape (N, D/2, D)

    @property
    def n_vars(self) -> int:
        return self.system.n_vars

    @property
    def dim(self) -> int:
        return self.system.dim

    def matrix(self, i: int) -> np.ndarray:
        """A_{X_i}, expanded from its block: a transposed view of a fresh
        D x D array."""
        dim = self.dim
        at = np.zeros((dim, dim), dtype=self.blocks.dtype)
        rows = _bit_rows(at, i)
        rows[...] = self.blocks[i].reshape(rows.shape)
        gamma = np.flatnonzero(_clear_bits(self.n_vars)[:, i])
        at[gamma, gamma | (1 << i)] = 1.0
        return at.T

    @property
    def matrices(self) -> np.ndarray:
        """The (N, D, D) stack of all A_{X_i}, expanded afresh on each access."""
        return np.stack([self.matrix(i) for i in range(self.n_vars)])


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


# Entries of one A_{X_i}^T that a block of the build's rows spans.
_BUILD_BLOCK = 1 << 13


@lru_cache(maxsize=None)
def _fill_plan(n: int):
    """Index arrays of the fill at N = n; they depend on n alone.

    Row j D/2 + (k with bit j dropped) of the fill's array holds row k of
    A_{X_j}^T if k has bit j, else row k | 2^j; row n D/2 is zero. The rows
    gamma are taken in ``order``, sorted by degree level, in blocks of at
    most ``_BUILD_BLOCK / D`` rows of one level: block k is positions
    bounds[k]:bounds[k + 1] of ``order``. Returns
    - ``order``;
    - ``src`` (N, D): for each j and position, the row that X takes, the
      zero row where gamma lacks bit j;
    - for each pair (gamma, i) with bit i clear in gamma, grouped by block
      (block k has pairs cuts[k]:cuts[k + 1]): i, the row of gamma in its
      block, the row of the array that the pair fills, and the unit column
      gamma | 2^i;
    - ``bounds`` and ``cuts``, as tuples.

    The cache holds one plan per N <= N_CAP, read-only, as every caller
    shares it.
    """
    dim = 1 << n
    half = dim // 2
    idx, var = np.arange(dim), np.arange(n)[:, None]
    clear = _clear_bits(n)
    dest = var * half + (((idx >> (var + 1)) << var) | (idx & ((1 << var) - 1)))
    level = n - clear.sum(axis=1)
    order = np.argsort(level, kind="stable")
    src = np.where(clear.T, n * half, dest)[:, order]
    r, i = np.nonzero(clear[order])
    gamma = order[r]
    # the last position, with every bit set, is no gamma
    step = max(1, _BUILD_BLOCK // dim)
    bounds, end = [], 0
    for size in np.bincount(level)[:n].tolist():
        bounds.extend(range(end, end + size, step))
        end += size
    bounds.append(end)
    cuts = np.searchsorted(r, bounds)
    arrays = (order, src, i, r - np.repeat(bounds[:-1], np.diff(cuts)),
              dest[i, gamma], gamma | (1 << i))
    for a in arrays:
        a.setflags(write=False)
    return arrays + (tuple(bounds), tuple(cuts.tolist()))


def build_multiplication_matrices(sys: DiagQuadSystem) -> MultiplicationMatrices:
    """Construct the blocks of all A_{X_i}: float64 when M and mu are real,
    else complex128."""
    n, dim = sys.n_vars, sys.dim
    real = not (sys.m.imag.any() or sys.mu.imag.any())
    m, mu = (np.ascontiguousarray(sys.m.real), sys.mu.real) if real else (sys.m, sys.mu)
    # the rows of all N blocks, then one zero row
    rows = np.zeros((n * dim // 2 + 1, dim), dtype=float if real else complex)
    # row gamma | 2^i of A_{X_i}^T, for gamma without bit i, is mu_i e_gamma
    # plus sum_j m_ij (row gamma of A_{X_j}^T), one degree level below: one
    # product M X per block of a level's rows. Row gamma of A_{X_j}^T is
    # stored when gamma has bit j; otherwise it is the unit row
    # e_{gamma | 2^j}, which X holds as the zero row, and m_ij goes onto the
    # product at column gamma | 2^j, where every stored row of X is zero.
    order, src, i, r, dest, unit, bounds, cuts = _fill_plan(n)
    coef = m[:, i]
    step = max(1, _BUILD_BLOCK // dim)
    block = np.arange(step)
    # The blocks bound the temporaries, and they live in two buffers made
    # once: fresh arrays per block page-fault anew in some heap states,
    # which doubled ex1's build
    bufs = np.empty((2, n * step * dim), dtype=rows.dtype)
    for lo, hi, a, b in zip(bounds, bounds[1:], cuts, cuts[1:]):
        x, y = (buf[:n * (hi - lo) * dim].reshape(n, hi - lo, dim) for buf in bufs)
        np.take(rows, src[:, lo:hi].ravel(), axis=0, mode="clip", out=x.reshape(-1, dim))
        np.matmul(m, x.reshape(n, -1), out=y.reshape(n, -1))
        y[:, block[:hi - lo], order[lo:hi]] += mu[:, None]
        y[:, r[a:b], unit[a:b]] += coef[:, a:b]
        rows[dest[a:b]] = y[i[a:b], r[a:b]]
    blocks = rows[:-1].reshape(n, dim // 2, dim)
    blocks.setflags(write=False)
    return MultiplicationMatrices(system=sys, blocks=blocks)


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


def _polish(starts: np.ndarray, sys: DiagQuadSystem, max_iter: int = 12):
    """Newton-polish each column of an (N, k) array as a root of
    F(x) = x^2 - Mx - mu.

    Eigenvector-derived tuples carry O(sqrt(eps)) noise on clustered spectra;
    a few Newton steps push well-conditioned roots to machine precision.
    Each root keeps the iterate of least residual 2-norm, its start if no
    step improves on it. A root stops after ``max_iter`` steps, once its
    residual is below 1e-15 (1 + ||x||^2), or when its Jacobian is exactly
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
    for _ in range(max_iter):
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
        go = ~(r < 1e-15 * (1.0 + x_sq)) & np.isfinite(x).all(axis=1)
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
    ||s - u||_inf <= MERGE * max(||s||_inf, ||u||_inf, 1e-300), or becomes a
    representative itself; multiplicity_hint counts the members.

    Since | ||s|| - ||u|| | <= ||s - u||, only pairs whose norms lie within
    4 MERGE max(||s||, 1e-300) of each other can merge; the factor 4 covers
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
    reach = 4.0 * MERGE * np.maximum(norms, 1e-300)
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
        close = gap <= MERGE * np.maximum(np.maximum(norms[u], norms[s]), 1e-300)
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
    ``s`` is overwritten; a real ``s`` without pairs is R itself.
    """
    k = np.flatnonzero(np.arange(len(partner)) < partner)
    l = partner[k]
    if not k.size and not np.iscomplexobj(s):
        return s, 0.0
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


def common_eigen_solutions(
    mm: MultiplicationMatrices,
    seed: int = 0,
    tol: Optional[Tolerances] = None,
) -> EigenSolutionSet:
    """All simultaneous eigenvalue tuples of the A_{X_i}.

    One eigen-decomposition of T^T, where T = sum c_i A_{X_i} is a random
    combination (``_combination_weights``). A_{X_i}^T u = xi_i u holds for the
    evaluation vector u = (b_k(xi))_k of every root xi, and a generic
    combination separates the roots, so every eigenvector of T^T is an
    evaluation vector and xi_i = u[2^i] / u[0].

    The weights respect the system's conjugation, so conj(T) = P T P for the
    permutation P of the basis monomials that it induces, and T^T is
    similar to the real matrix R of ``_real_form``. A real ``eig`` of R gives
    the eigenvectors w, and only the rows 0 and 2^i of u = U w are formed.
    When R drops an imaginary part above ``tol.conjugation``, relative to
    max|R|, the matrices do not respect the declared conjugation and
    ``ConjugationDefectError`` is raised.

    The finite tuples are Newton-polished as one (2^N, N) array
    (``_polish``), bitwise as if one at a time. A tuple is rejected when it is
    not finite or its normwise residual (``_residual``) exceeds
    ``tol.eig_residual``. Accepted tuples closer than ``MERGE`` are merged
    (``_dedupe``). Every one of the 2^N eigenvectors ends up in
    ``solutions`` (counted by multiplicity_hint) or in ``rejected``, each
    list in the order of the eigenvectors.
    """
    tol = tol or Tolerances()
    sys = mm.system
    q, defect = _read_off(mm, seed, tol)
    finite = np.isfinite(q).all(axis=0)
    # a column that is not finite is rejected as it is; a zero start in its
    # place keeps the batch finite
    xis, f = _polish(np.where(finite, q, 0.0), sys)
    residual = np.where(finite, _residual(xis, f, sys, np.linalg.norm(sys.m, np.inf)),
                        np.inf)
    xis[~finite] = q.T[~finite]
    accepted, rejected = [], []
    for xi, res in zip(xis, residual.tolist()):
        (accepted if res <= tol.eig_residual else rejected).append(
            EigenSolution(xi, res, multiplicity_hint=1))
    return EigenSolutionSet(solutions=_dedupe(accepted), rejected=rejected,
                            conjugation_defect=defect)


def _read_off(mm: MultiplicationMatrices, seed: int, tol: Tolerances):
    """The tuples xi_i = u[2^i] / u[0] of all 2^N eigenvectors u of T^T, one
    per column of an (N, 2^N) array, and the conjugation defect of R."""
    sys = mm.system
    partner = sys.basis_conj()
    c = _combination_weights(sys.conj, seed)
    if not c.imag.any():
        c = c.real    # keeps T^T real for real blocks
    # a complex combination lives only inside _real_form, so it is freed
    # before eig
    r, defect = _real_form(_combination_transpose(mm, c), partner)
    if defect > tol.conjugation:
        raise ConjugationDefectError(
            f"conjugation defect {defect:.3e} exceeds tolerance "
            f"{tol.conjugation:.1e}: the multiplication matrices do not "
            "respect the declared conjugation of the variables",
            diagnostics={"conjugation_defect": defect},
        )
    _, w = np.linalg.eig(r)
    rows = np.concatenate(([0], 1 << np.arange(mm.n_vars)))
    v = _evaluation_rows(w, rows, partner)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v[1:] / v[0], defect


def _combination_transpose(mm: MultiplicationMatrices, c: np.ndarray) -> np.ndarray:
    """T^T = sum c_i A_{X_i}^T from the blocks: the rows with bit i of
    A_{X_i}^T are its block, one scaled add each, and the unit entries
    c_i at (gamma, gamma | 2^i) go on top."""
    n, dim = mm.n_vars, mm.dim
    t = np.zeros((dim, dim), dtype=np.result_type(c, mm.blocks))
    for i in range(n):
        rows = _bit_rows(t, i)
        rows += c[i] * mm.blocks[i].reshape(rows.shape)
    gamma, bits = np.nonzero(_clear_bits(n))
    t[gamma, gamma | (1 << bits)] += c[bits]
    return t


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
    out = np.zeros((dim, dim), dtype=np.result_type(weights, mm.blocks))
    for i in range(mm.n_vars):
        if weights[i] != 0:
            a = mm.matrix(i)
            out += weights[i] * (a @ a @ a)
    return out
