"""Commuting multiplication matrices on the 2^N quotient space.

A diagonal-quadratic system is x_i^2 = m_i . x + mu_i, one equation per
variable. Its generators form a Groebner basis outright (the leading terms
x_i^2 are pairwise coprime), so the quotient ring has the 2^N square-free
monomials as a basis. Bit convention: bit i of a basis index corresponds to
variable x_i (0-based); index 0 is the constant monomial.

Column k of A_{X_i} holds the square-free normal form of x_i * b_k, where
b_k is the k-th basis monomial. If b_k lacks x_i, x_i * b_k is itself
square-free and the column is exactly the unit vector e_{k | 2^i}; only the
D/2 columns with bit i set, the block B_i, carry numbers. There one
substitution x_i^2 -> m_i . x + mu_i applies, whose result is a combination
of the columns b_k / x_i of the A_{X_j}, all of degree one less. So the
matrices are filled level by level in the degree (popcount) of k, each
(level, i) block at once, with the same arithmetic per entry as a sweep in
index order. The commutation check uses the unit columns too: a commutator
column with neither bit i nor bit j is exactly zero, and the others need
only products with the blocks B_i and B_j (``_commutator_norm``).

The roots are read off the eigenvectors of T^T for a random combination
T = sum c_i A_{X_i}: each is the evaluation vector (b_k(xi))_k of one root,
so xi_i is its entry 2^i over its entry 0. The system is real up to the
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
from typing import List, Optional

import numpy as np

from .errors import BasisSizeError, CommutationDefectError, ConjugationDefectError
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


@dataclass(frozen=True)
class MultiplicationMatrices:
    """The N commuting D x D matrices A_{X_i}, D = 2^N."""

    system: DiagQuadSystem
    matrices: np.ndarray          # shape (N, D, D)
    commutation_defect: float

    @property
    def n_vars(self) -> int:
        return self.system.n_vars

    @property
    def dim(self) -> int:
        return self.system.dim


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


def build_multiplication_matrices(
    sys: DiagQuadSystem, tol: Optional[Tolerances] = None
) -> MultiplicationMatrices:
    """Construct all A_{X_i} and verify that they commute."""
    tol = tol or Tolerances()
    n, dim = sys.n_vars, sys.dim
    # filled as transposes: row beta of mats[i] is column beta of A_{X_i},
    # so each substitution gathers whole contiguous rows
    mats = np.zeros((n, dim, dim), dtype=complex)
    idx = np.arange(dim)
    clear = ((idx[:, None] >> np.arange(n)) & 1) == 0    # (D, N): bit i of k is 0
    rows, bits = np.nonzero(clear)
    mats[bits, rows, rows | (1 << bits)] = 1.0
    level = n - clear.sum(axis=1)
    # row gamma | 2^i of A_{X_i}^T, for gamma without bit i, reads rows gamma
    # of every A_{X_j}^T: one degree level below
    for p in range(n):
        at = idx[level == p]
        for i in range(n):
            gamma = at[clear[at, i]]
            blk = np.zeros((gamma.size, dim), dtype=complex)
            blk[idx[:gamma.size], gamma] = sys.mu[i]
            # numpy scalars: a Python complex takes another multiply loop,
            # which rounds differently at N = 9
            for j, mij in enumerate(sys.m[i]):
                if mij != 0:
                    blk += mij * mats[j, gamma]
            mats[i, gamma | (1 << i)] = blk
    for a in mats:
        a[...] = a.T    # numpy copies the overlapping source first

    cdef = _commutation_defect(mats)
    if cdef > tol.commutation:
        raise CommutationDefectError(
            f"commutation defect {cdef:.3e} exceeds tolerance {tol.commutation:.1e}",
            diagnostics={"commutation_defect": cdef},
        )
    mats.setflags(write=False)
    return MultiplicationMatrices(
        system=sys,
        matrices=mats,
        commutation_defect=cdef,
    )


def _rows(x: np.ndarray, bit: int, side: int) -> np.ndarray:
    """View of the rows of x whose index has ``bit`` set (side 1) or clear
    (side 0), shaped (rows >> (bit + 1), 1 << bit, columns)."""
    return x.reshape(-1, 2, 1 << bit, x.shape[1])[:, side]


def _apply(b: np.ndarray, bit: int, y: np.ndarray, out: np.ndarray) -> None:
    """out = A y for the multiplication matrix A whose columns with ``bit``
    set are the columns of b, in index order, and whose other columns beta
    are the unit vectors e_{beta | 2^bit}: b times the rows of y with the
    bit, plus the rows of y without it moved up by 2^bit."""
    np.matmul(b, _rows(y, bit, 1).reshape(-1, y.shape[1]), out=out)
    _rows(out, bit, 1)[...] += _rows(y, bit, 0)


def _commutator_norm(ai: np.ndarray, aj: np.ndarray, i: int, j: int,
                     work: np.ndarray) -> float:
    """||A_i A_j - A_j A_i||_F for bits i < j, from the blocks B_i, B_j.

    Column c of the commutator is A_i A_j e_c - A_j A_i e_c. With B_i the
    block of A_i's columns with bit i, it is exactly zero when c has neither
    bit, A_i B_j e_c - B_j e_{c|2^i} when c has bit j only, B_i e_{c|2^j} -
    A_j B_i e_c when c has bit i only, and A_i B_j e_c - A_j B_i e_c when it
    has both. So the norm takes the two products A_i B_j and A_j B_i, each a
    D x D/2 x D/2 GEMM through ``_apply``, instead of two D x D x D ones.
    ``work`` holds four D x D/2 arrays: B_i, B_j and the two products, which
    end up holding the commutator columns.
    """
    dim = ai.shape[0]
    # column index c split as (high, bit j, middle, bit i, low); the columns
    # with bit i drop its axis, those with bit j drop the other
    split = (dim, dim >> (j + 1), 2, 1 << (j - i - 1), 2, 1 << i)
    with_i = (dim, dim >> (j + 1), 2, 1 << (j - i - 1), 1 << i)
    with_j = (dim, dim >> (j + 1), 1 << (j - i - 1), 2, 1 << i)
    bi, ba = work[0].reshape(with_i), work[3].reshape(with_i)
    bj, ab = work[1].reshape(with_j), work[2].reshape(with_j)
    np.copyto(bi, ai.reshape(split)[:, :, :, :, 1])
    np.copyto(bj, aj.reshape(split)[:, :, 1])
    _apply(work[0], i, work[1], out=work[2])
    _apply(work[1], j, work[0], out=work[3])
    ab[:, :, :, 1] -= ba[:, :, 1]     # both bits
    ab[:, :, :, 0] -= bj[:, :, :, 1]  # bit j only
    ba[:, :, 0] -= bi[:, :, 1]        # bit i only, negated
    ba[:, :, 1] = 0.0                 # both bits, counted in ab
    return float(np.sqrt(np.vdot(ab, ab).real + np.vdot(ba, ba).real))


def _commutation_defect(mats: np.ndarray) -> float:
    """max over i < j of ||[A_i, A_j]||_F / (||A_i||_F ||A_j||_F)."""
    n, dim = mats.shape[0], mats.shape[1]
    # one matrix at a time: a stacked norm over (N, D, D) would allocate a
    # temporary as large as all N matrices
    fro = [np.linalg.norm(a) for a in mats]
    # blocks copied pair by pair into one workspace: a stored stack of all N
    # blocks would hold N D^2/2 more entries, and fresh arrays per pair
    # fragment the heap (2.5 MB more peak RSS over repeated N = 9 solves)
    work = np.empty((4, dim, dim // 2), dtype=complex)
    cdef = 0.0
    for j in range(n):
        for i in range(j):
            c = _commutator_norm(mats[i], mats[j], i, j, work)
            cdef = max(cdef, c / (fro[i] * fro[j]))
    return float(cdef)


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
    ``s`` is overwritten.
    """
    k = np.flatnonzero(np.arange(len(partner)) < partner)
    l = partner[k]
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
    When R drops an imaginary part above ``tol.commutation``, relative to
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
    # the complex combination lives only inside _real_form, so it is freed
    # before eig
    r, defect = _real_form(np.tensordot(c, mm.matrices, axes=1).T, partner)
    if defect > tol.commutation:
        raise ConjugationDefectError(
            f"conjugation defect {defect:.3e} exceeds tolerance "
            f"{tol.commutation:.1e}: the multiplication matrices do not "
            "respect the declared conjugation of the variables",
            diagnostics={"conjugation_defect": defect},
        )
    _, w = np.linalg.eig(r)
    rows = np.concatenate(([0], 1 << np.arange(mm.n_vars)))
    v = _evaluation_rows(w, rows, partner)
    with np.errstate(divide="ignore", invalid="ignore"):
        return v[1:] / v[0], defect


def build_critical_value_matrix(
    mm: MultiplicationMatrices, weights: np.ndarray
) -> np.ndarray:
    """A_F = sum_i weights_i A_{X_i}^3.

    Its eigenvalues are the values of the weighted cubic at every solution,
    with the quotient-ring multiplicity structure.
    """
    weights = np.asarray(weights, dtype=complex)
    dim = mm.dim
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(mm.n_vars):
        if weights[i] != 0:
            a = mm.matrices[i]
            out += weights[i] * (a @ a @ a)
    return out
