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
of U times them are formed. Every one of the 2^N eigenvectors is accounted
for, as a root or as a rejection, so a caller can tell when roots are
missing.
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


def _polish(xi: np.ndarray, sys: DiagQuadSystem, max_iter: int = 12) -> np.ndarray:
    """Newton-polish a root of F(x) = x^2 - Mx - mu.

    Eigenvector-derived tuples carry O(sqrt(eps)) noise on clustered spectra;
    a few Newton steps push well-conditioned roots to machine precision.
    Returns the input unchanged if the iteration fails to improve it.
    """
    def resid(x):
        return x * x - sys.m @ x - sys.mu

    best, best_r = xi, np.linalg.norm(resid(xi))
    x = xi.copy()
    for _ in range(max_iter):
        jac = 2.0 * np.diag(x) - sys.m
        try:
            step = np.linalg.solve(jac, resid(x))
        except np.linalg.LinAlgError:
            break
        x = x - step
        r = np.linalg.norm(resid(x))
        if r < best_r:
            best, best_r = x.copy(), r
        if r < 1e-15 * (1.0 + np.linalg.norm(x) ** 2):
            break
    return best


def _residual(xi: np.ndarray, sys: DiagQuadSystem, m_norm: float) -> float:
    """Normwise residual ||xi*xi - M xi - mu||_inf of a root, relative to
    ||xi||^2 + ||M|| ||xi|| + ||mu||: the size of the terms that cancel, so a
    tiny root next to large ones is judged on its own scale."""
    x_norm = np.linalg.norm(xi, np.inf)
    scale = x_norm * x_norm + m_norm * x_norm + np.linalg.norm(sys.mu, np.inf)
    r = np.linalg.norm(xi * xi - sys.m @ xi - sys.mu, np.inf)
    return float(r / max(scale, 1e-300))


def _dedupe(solutions):
    """Greedy clustering in input order.

    Each tuple joins the first earlier representative u with
    ||s - u||_inf <= MERGE * max(||s||_inf, ||u||_inf, 1e-300), or becomes a
    representative itself; multiplicity_hint counts the members.
    """
    if not solutions:
        return []
    shape = (len(solutions), len(solutions[0].xi))
    reps = np.empty(shape, dtype=complex)
    rep_norms = np.empty(shape[0])
    # scratch reused for every tuple: fresh (m x N) temporaries per tuple
    # fragment the heap and raised peak RSS by 3 MB at N = 9
    diff, gap = np.empty(shape, dtype=complex), np.empty(shape)
    out: List[EigenSolution] = []
    counts: List[int] = []
    for s in solutions:
        m = len(out)
        s_norm = np.linalg.norm(s.xi, np.inf)
        if m:
            np.abs(np.subtract(s.xi, reps[:m], out=diff[:m]), out=gap[:m])
            scale = np.maximum(np.maximum(rep_norms[:m], s_norm), 1e-300)
            hits = np.flatnonzero(gap[:m].max(axis=1) <= MERGE * scale)
            if hits.size:
                counts[hits[0]] += 1
                continue
        reps[m], rep_norms[m] = s.xi, s_norm
        out.append(s)
        counts.append(1)
    return [
        EigenSolution(s.xi, s.residual, multiplicity_hint=c)
        for s, c in zip(out, counts)
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

    Each tuple is Newton-polished; it is rejected when it is not finite or
    its normwise residual (``_residual``) exceeds ``tol.eig_residual``.
    Accepted tuples closer than ``MERGE`` are merged. Every one of the 2^N
    eigenvectors ends up in ``solutions`` (counted by multiplicity_hint) or
    in ``rejected``.
    """
    tol = tol or Tolerances()
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
        xis = v[1:] / v[0]
    m_norm = np.linalg.norm(sys.m, np.inf)
    accepted, rejected = [], []
    for xi in xis.T:
        if not np.all(np.isfinite(xi)):
            rejected.append(EigenSolution(xi, float("inf"), multiplicity_hint=1))
            continue
        xi = _polish(xi, sys)
        sol = EigenSolution(xi, _residual(xi, sys, m_norm), multiplicity_hint=1)
        (accepted if sol.residual <= tol.eig_residual else rejected).append(sol)
    return EigenSolutionSet(solutions=_dedupe(accepted), rejected=rejected,
                            conjugation_defect=defect)


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
