"""Independent oracles the test suite checks the pipeline against.

Nothing here reuses pipeline internals: the norm oracle integrates the
frequency response, the small-N solution oracles eliminate variables by
hand / lex Groebner bases, the global-minimum oracle solves the
approximant's numerator exactly and searches its denominator alone, the
first-order residual multiplies out the defining polynomial identity (with
numpy's polynomial arithmetic only), and the normal-form reference
rewrites polynomials term by term instead of filling matrix columns; the
annihilation defect multiplies the matrices out against the generators
they must satisfy, and the commutation defect multiplies them out against
each other. The exceptions are the references that ``h2reduce.stetter``
must agree with exactly or to rounding: the column-by-column sweep that
fills the multiplication matrices, the sum of the combination T^T over
whole blocks and its real form under the monomial involution
``basis_conj``, the one-root-at-a-time Newton polish,
residual and dedupe loops at the end, the pairwise clustering of the
critical levels, and the one-tuple-at-a-time candidate recovery, which use
the library's result types only. The multiplication matrices under test
come from the one fill of the pipeline (``kept_matrices``), and ``expand``
writes them out as a dense stack. ``reflect`` and ``is_hurwitz`` are the textbook
polynomial operations that candidate recovery batches.

Polynomials in N variables are plain dicts {multi-index: coefficient}; a
multi-index is a length-N tuple of exponents.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

from h2reduce.foc import CriticalPoint
from h2reduce.poly import Polynomial, roots
from h2reduce.stetter import EigenSolution, combine
from h2reduce.tolerances import TOL


def reflect(p: Polynomial) -> Polynomial:
    """s -> p(-s): flips the sign of odd-degree coefficients."""
    out = np.array(p.coeffs)
    deg = p.degree
    for k in range(len(out)):
        if (deg - k) % 2:
            out[k] = -out[k]
    return Polynomial(out)


def is_hurwitz(p: Polynomial) -> bool:
    """True iff every root lies strictly left of -TOL.hurwitz.

    Degree-0 polynomials are vacuously Hurwitz.
    """
    if not p.is_real:
        raise ValueError("Hurwitz test requires real polynomial")
    if p.degree == 0:
        return True
    return bool(np.all(roots(p).real < -TOL.hurwitz))


def quad_h2_norm(num, den) -> float:
    """(1/pi) * integral_0^inf |H(iw)|^2 dw by adaptive quadrature.

    Split at the pole magnitudes so the quadrature sees the resonant peaks.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)

    def integrand(w):
        s = 1j * w
        h = np.polyval(num, s) / np.polyval(den, s)
        return abs(h) ** 2

    breaks = sorted(set(np.abs(np.roots(den))))
    total = 0.0
    lo = 0.0
    for b in breaks:
        val, _ = quad(integrand, lo, 10 * b, limit=400)
        total += val
        lo = 10 * b
    tail, _ = quad(integrand, lo, np.inf, limit=400)
    return float(np.sqrt((total + tail) / np.pi))


def _residues(num, den, poles) -> np.ndarray:
    """Residues of num/den at its simple poles."""
    dden = np.polyder(den)
    return np.array([np.polyval(num, p) / np.polyval(dden, p) for p in poles])


def _paired_distance_sq(p1, r1, p2, r2) -> float:
    poles = np.concatenate([p1, p2])
    res = np.concatenate([r1, -r2])
    denom = -(poles[:, None] + poles[None, :])
    return float(np.real(res @ (res / denom).sum(axis=1)))


def residue_distance_sq(num1, den1, num2, den2) -> float:
    """||H1 - H2||_2^2 through the merged residue pairing (distinct poles)."""
    p1, p2 = np.roots(den1), np.roots(den2)
    return _paired_distance_sq(p1, _residues(num1, den1, p1), p2, _residues(num2, den2, p2))


def foc_residual(sys, cp) -> float:
    """Relative max-coefficient residual of e*a - b*d - q0*reflect(a)^2 at a
    recovered candidate; it vanishes at every critical point."""
    ea = np.convolve(sys.tf.numerator.coeffs, cp.a.coeffs)
    bd = np.convolve(cp.b.coeffs, sys.tf.denominator.coeffs)
    ra = reflect(cp.a).coeffs
    ra2 = np.convolve(ra, ra)
    lhs = np.polysub(np.polysub(ea, bd), cp.q0 * ra2)
    scale = max(
        np.max(np.abs(ea)),
        np.max(np.abs(bd)),
        np.max(np.abs(ra2)) * abs(cp.q0),
        1e-300,
    )
    return float(np.max(np.abs(lhs)) / scale)


def _newton_polish(m: np.ndarray, x: np.ndarray, iters: int = 10) -> np.ndarray:
    """Refine a root of x_i^2 = (M x)_i to double-precision accuracy.

    The elimination path loses a few digits on large roots (univariate
    root-finding over a wide coefficient range); plain Newton recovers them.
    """
    for _ in range(iters):
        f = x * x - m @ x
        jac = 2.0 * np.diag(x) - m
        try:
            x = x - np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
    return x


def elimination_solutions_n2(m: np.ndarray) -> List[np.ndarray]:
    """All solutions of x_i^2 = (M x)_i for N=2 by direct substitution.

    x2 = (x1^2 - m11 x1)/m12 turns the second equation into a quartic in x1.
    Requires m12 != 0 (generic).
    """
    m11, m12 = m[0]
    m21, m22 = m[1]
    if m12 == 0:
        raise ValueError("elimination oracle needs m12 != 0")
    # (x1^2 - m11 x1)^2 - m22 m12 (x1^2 - m11 x1) - m21 m12^2 x1 = 0
    inner = np.array([1.0, -m11, 0.0])
    quartic = np.polysub(
        np.polysub(np.convolve(inner, inner), m22 * m12 * np.pad(inner, (0, 0))),
        np.array([0.0, 0.0, m21 * m12**2, 0.0]),
    )
    sols = []
    for x1 in np.roots(quartic):
        x2 = (x1**2 - m11 * x1) / m12
        sols.append(_newton_polish(m, np.array([x1, x2])))
    return sols


def elimination_solutions_n3(m: np.ndarray) -> List[np.ndarray]:
    """All solutions for N=3 via an exact lex Groebner basis.

    Coefficients are rationalized exactly (floats are dyadic rationals), so
    the basis computation is exact; the univariate root find and the
    back-substitution, which evaluates the exact terms of the basis at the
    roots in complex floating point, are numeric. Generic systems land in
    shape position [x1 - p1(x3), x2 - p2(x3), q(x3)].
    """
    import sympy as sp

    x1, x2, x3 = sp.symbols("x1 x2 x3")
    xs = (x1, x2, x3)

    def rat(v):
        return sp.Rational(Fraction(float(v)))

    gens = [
        xs[i] ** 2 - sum(rat(m[i, j]) * xs[j] for j in range(3))
        for i in range(3)
    ]
    gb = sp.groebner(gens, x1, x2, x3, order="lex")
    polys = list(gb.polys)
    uni = [p for p in polys if p.gens and set(p.free_symbols) <= {x3}]
    assert uni, "lex basis has no univariate element; system not generic"

    def coefficients(p, k, x):
        """The coefficients of the basis element p, descending in x_k, at the
        values x[i] of the variables solved for, summed from its exact terms."""
        terms = p.terms()
        cs = [0j] * (max(e[k] for e, _ in terms) + 1)
        for e, c in terms:
            assert all(e[i] == 0 or i in x for i in range(3) if i != k), \
                "system not in shape position"
            cs[-1 - e[k]] += complex(c) * math.prod(x[i] ** e[i] for i in x)
        return np.array(cs)

    sols = []
    for root in np.roots(coefficients(uni[-1], 2, {})):
        # back-substitute through the (triangular) remaining basis elements
        x = {2: complex(root)}
        for k in (1, 0):
            cand = [p for p in polys if xs[k] in p.free_symbols]
            rts = np.roots(coefficients(cand[-1], k, x))
            assert len(rts) == 1, "system not in shape position"
            x[k] = rts[0]
        sols.append(_newton_polish(m, np.array([x[0], x[1], x[2]], dtype=complex)))
    return sols


MultiIndex = Tuple[int, ...]


def generator(sys, i: int) -> Dict[MultiIndex, complex]:
    """g_i = x_i^2 - m_i . x of a DiagQuadSystem (0-based i)."""
    n = sys.n_vars
    terms = {tuple(2 if j == i else 0 for j in range(n)): 1.0}
    for j in range(n):
        if sys.m[i, j] != 0:
            terms[tuple(1 if k == j else 0 for k in range(n))] = -sys.m[i, j]
    return terms


def normal_form(f: Dict[MultiIndex, complex], sys, strategy: str = "max_degree") -> np.ndarray:
    """Square-free normal form of f modulo x_i^2 = m_i . x.

    Returns the coefficient vector over the 2^N square-free monomials (bit i
    of the index <-> variable i). Monomials with an exponent >= 2 wait in a
    priority queue and are rewritten one at a time with x_i^2 -> m_i . x at
    their first such i; every term is classified once, when it is
    created. ``strategy`` sets the rewrite order, which must not change the
    result: "max_degree" takes the highest total degree first, "min_index"
    the lowest first reducible variable (then the highest degree).
    """
    n = sys.n_vars
    out = np.zeros(1 << n, dtype=complex)
    work: Dict[MultiIndex, complex] = {}
    queue: List[Tuple[Tuple[int, int], MultiIndex]] = []

    def add(alpha: MultiIndex, c: complex) -> None:
        if alpha in work:
            work[alpha] += c
            return
        first = next((k for k, e in enumerate(alpha) if e >= 2), None)
        if first is None:
            out[sum(1 << k for k, e in enumerate(alpha) if e)] += c
        else:
            work[alpha] = c
            key = (first if strategy == "min_index" else 0, -sum(alpha))
            heapq.heappush(queue, (key, alpha))

    for alpha, c in f.items():
        if len(alpha) != n:
            raise ValueError("variable count mismatch")
        add(alpha, c)
    while queue:
        _, alpha = heapq.heappop(queue)
        c = work.pop(alpha)
        i = next(k for k, e in enumerate(alpha) if e >= 2)
        cofactor = tuple(e - 2 if k == i else e for k, e in enumerate(alpha))
        for j in range(n):
            if sys.m[i, j] != 0:
                add(tuple(e + 1 if k == j else e for k, e in enumerate(cofactor)),
                    c * sys.m[i, j])
    return out


def monomial_normal_form(sys):
    """The normal form of a single monomial modulo x_i^2 = m_i . x, as a
    function of its multi-index, memoised for the one system ``sys``: a
    monomial with an exponent >= 2 is rewritten at the first such x_i, as in
    ``normal_form``, into sum_j m_ij x_j times its cofactor, and each
    monomial that the rewrites reach is reduced once."""
    n = sys.n_vars
    memo: Dict[MultiIndex, np.ndarray] = {}

    def nf(alpha: MultiIndex) -> np.ndarray:
        out = memo.get(alpha)
        if out is not None:
            return out
        out = np.zeros(1 << n, dtype=complex)
        i = next((k for k, e in enumerate(alpha) if e >= 2), None)
        if i is None:
            out[sum(1 << k for k, e in enumerate(alpha) if e)] = 1.0
        else:
            for j in range(n):
                if sys.m[i, j] != 0:
                    out += sys.m[i, j] * nf(tuple(e - 2 * (k == i) + (k == j)
                                                  for k, e in enumerate(alpha)))
        memo[alpha] = out
        return out

    return nf


def kept_matrices(sys):
    """The ``MultiplicationMatrices`` of a DiagQuadSystem, as the one fill of
    the pipeline keeps them for the critical-value matrix."""
    return combine(sys, keep_matrices=True).matrices


def expand(mm) -> np.ndarray:
    """The (N, D, D) stack of all A_{X_i} of ``MultiplicationMatrices``."""
    return np.stack([mm.matrix(i) for i in range(mm.n_vars)])


def reference_multiplication_matrices(sys) -> np.ndarray:
    """The (N, D, D) stack of A_{X_i}, filled one column at a time in index
    order: column beta of A_i is e_{beta | 2^i} when beta lacks bit i, and
    otherwise sum_j m_ij A_j[:, gamma] for gamma = beta ^ 2^i, a column
    already filled."""
    n, dim = sys.n_vars, sys.dim
    mats = np.zeros((n, dim, dim), dtype=complex)
    for beta in range(dim):
        for i in range(n):
            bit = 1 << i
            if not beta & bit:
                mats[i, beta | bit, beta] = 1.0
            else:
                gamma = beta ^ bit
                col = np.zeros(dim, dtype=complex)
                for j in range(n):
                    if sys.m[i, j] != 0:
                        col += sys.m[i, j] * mats[j, :, gamma]
                mats[i, :, beta] = col
    return mats


def basis_conj(sys) -> np.ndarray:
    """The involution of the basis monomials that the conjugation ``sys.conj``
    of the variables induces: bit i of index k moves to bit conj(i)."""
    bits = (np.arange(sys.dim)[:, None] >> np.arange(sys.n_vars)) & 1
    return bits @ (1 << sys.conj)


def combination_transpose(mm, c) -> np.ndarray:
    """T^T = sum c_i A_{X_i}^T summed from whole blocks: the rows with bit i
    of A_{X_i}^T are its block, one scaled add each, and the unit entries
    c_i at (gamma, gamma | 2^i) go on top. ``stetter.combine`` forms T^T
    level by level as the fill runs, with the same operations per entry."""
    n, dim = mm.n_vars, mm.dim
    t = np.zeros((dim, dim), dtype=np.result_type(c, mm.rows))
    for i in range(n):
        rows = t.reshape(-1, 2, 1 << i, dim)[:, 1]
        rows += c[i] * mm.block(i).reshape(rows.shape)
    gamma, bits = np.nonzero(((np.arange(dim)[:, None] >> np.arange(n)) & 1) == 0)
    t[gamma, gamma | (1 << bits)] += c[bits]
    return t


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


def real_form(s: np.ndarray, partner: np.ndarray):
    """R = U^H S U, real when conj(S) = P S P for the permutation
    P e_k = e_{partner[k]}, and the imaginary part it drops.

    U keeps e_k where partner[k] = k, and takes a pair k < l = partner[k] to
    (e_k + e_l)/sqrt2 in column k and i(e_k - e_l)/sqrt2 in column l. Then
    conj(U) = P U, so conj(R) = U^H P conj(S) P U = R. Returns R and
    max|Im(U^H S U)| / max|R|, which is rounding error when S respects P.
    A real ``s`` without pairs is R itself; otherwise S U is formed in one
    complex copy of ``s``. ``stetter.combine`` forms R level by level as the
    fill runs, with the same operations per entry.
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


def dense_commutation_defect(mats) -> float:
    """max over i < j of ||A_i A_j - A_j A_i||_F / (||A_i||_F ||A_j||_F),
    from the full D x D products."""
    n = len(mats)
    fro = [np.linalg.norm(a) for a in mats]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            c = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            worst = max(worst, c / (fro[i] * fro[j]))
    return float(worst)


def annihilation_defect(mm) -> float:
    """Largest ||A_i^2 - sum_j m_ij A_j||_F / max(||A_i||_F^2, 1): how far
    the multiplication matrices are from satisfying the generators
    x_i^2 - m_i . x of the system they were built for."""
    sys, mats = mm.system, expand(mm)
    worst = 0.0
    for i in range(mm.n_vars):
        g = mats[i] @ mats[i] - np.tensordot(sys.m[i], mats, axes=1)
        worst = max(worst, np.linalg.norm(g) / max(np.linalg.norm(mats[i]) ** 2, 1.0))
    return float(worst)


def evaluate_poly_at_matrices(f: Dict[MultiIndex, complex], mm) -> np.ndarray:
    """f(A_{X_1}, ..., A_{X_N}) over a commuting family, by matrix powers."""
    n, dim = mm.n_vars, mm.dim
    mats = expand(mm)
    out = np.zeros((dim, dim), dtype=complex)
    for alpha, coeff in f.items():
        if len(alpha) != n:
            raise ValueError("variable count mismatch")
        term = np.eye(dim, dtype=complex)
        for i, e in enumerate(alpha):
            term = term @ np.linalg.matrix_power(mats[i], e)
        out += coeff * term
    return out


def projection(poles, res, a):
    """The best numerator b over a monic stable denominator of order K = 1 or
    2, for G = sum_i res_i/(s - poles_i), and what it removes from ||G||^2.

    ``a[..., k]`` holds a_k, the coefficient of s^k. The s^k/a are orthogonal,
    with ||s^k/a||^2 = 1/(2 prod_{j >= k} a_j), so b_k = c_k/||s^k/a||^2 for
    c_k = <G, s^k/a> = sum_i res_i (-p_i)^k / a(-p_i), and
    ||G - b/a||^2 = ||G||^2 - sum_k c_k b_k.
    """
    x = -poles
    k = a.shape[-1]
    a_at = x**k + sum(a[..., [j]] * x**j for j in range(k))
    c = np.stack([(res * x**j / a_at).sum(-1).real for j in range(k)], -1)
    b = c * 2 * np.cumprod(a[..., ::-1], -1)[..., ::-1]
    return b, (c * b).sum(-1)


def projected_global_minimum(num, den, order, rng) -> float:
    """Smallest squared H2 distance from num/den to a stable approximant of
    order 1 or 2, by variable projection (Golub-Pereyra 1973): ``projection``
    solves the numerator exactly, and only log a is searched, on a grid over
    [-12, 12]^order and then by Nelder-Mead from the two best grid points
    (positive coefficients are necessary and sufficient for degree <= 2
    Hurwitz). Raises ValueError when a best grid point lies on the grid edge.
    """
    if order not in (1, 2):
        raise ValueError("oracle supports order 1 and 2 only")
    # callers draw their next systems from rng: a fixed draw here keeps those
    # systems the same whatever the search does
    rng.normal(scale=1.5, size=(24, 2 * order))
    poles = np.roots(den)
    res = _residues(num, den, poles)
    norm_sq = _paired_distance_sq(poles, res, poles[:0], res[:0])

    def value(t):
        return norm_sq - projection(poles, res, np.exp(np.clip(t, -30.0, 30.0)))[1]

    axis = np.linspace(-12.0, 12.0, 961 if order == 1 else 241)
    grid = np.stack(np.meshgrid(*[axis] * order, indexing="ij"), -1).reshape(-1, order)
    starts = grid[np.argsort(value(grid))[:2]]
    if np.any(np.abs(starts) == axis[-1]):
        raise ValueError("projected minimum lies on the edge of the log grid")
    return min(float(minimize(value, t, method="Nelder-Mead",
                              options={"xatol": 1e-8, "fatol": 1e-15}).fun)
               for t in starts)


def match_solution_sets(a: List[np.ndarray], b: List[np.ndarray], tol: float) -> bool:
    """Bijective matching of two solution lists within per-coordinate tol."""
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for x in a:
        hit = None
        for k, y in enumerate(b):
            if not used[k] and np.max(np.abs(x - y)) <= tol * (1.0 + np.max(np.abs(y))):
                hit = k
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def loop_dedupe(solutions, merge: float):
    """Greedy clustering of root tuples, one pairwise comparison at a time."""
    out: List[EigenSolution] = []
    counts: List[int] = []
    for s in solutions:
        placed = False
        for idx, u in enumerate(out):
            scale = max(
                np.linalg.norm(s.xi, np.inf), np.linalg.norm(u.xi, np.inf), 1e-300
            )
            if np.linalg.norm(s.xi - u.xi, np.inf) <= merge * scale:
                counts[idx] += 1
                placed = True
                break
        if not placed:
            out.append(s)
            counts.append(1)
    return [
        EigenSolution(s.xi, s.residual, multiplicity_hint=c)
        for s, c in zip(out, counts)
    ]


def loop_polish(xi: np.ndarray, sys, max_iter: int = 12) -> np.ndarray:
    """Newton-polish a root of F(x) = x^2 - Mx, one root at a time.

    Eigenvector-derived tuples carry O(sqrt(eps)) noise on clustered spectra;
    a few Newton steps push well-conditioned roots to machine precision.
    Returns the input unchanged if the iteration fails to improve it.
    """
    def resid(x):
        return x * x - sys.m @ x

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


def loop_residual(xi: np.ndarray, sys, m_norm: float) -> float:
    """Normwise residual ||xi*xi - M xi||_inf of one root, relative to
    ||xi||^2 + ||M|| ||xi||: the size of the terms that cancel, so a tiny
    root next to large ones is judged on its own scale."""
    x_norm = np.linalg.norm(xi, np.inf)
    scale = x_norm * x_norm + m_norm * x_norm
    r = np.linalg.norm(xi * xi - sys.m @ xi, np.inf)
    return float(r / max(scale, 1e-300))


def loop_critical_levels(phi: np.ndarray) -> List[float]:
    """Distinct real positive values among the criterion values phi, in
    increasing order: each value is compared with every level kept so far."""
    levels: List[float] = []
    for v in phi.tolist():
        if abs(v.imag) <= TOL.value_real * (1.0 + abs(v)) and v.real > 0:
            m = v.real
            if not any(abs(m - u) <= TOL.value_cluster * max(m, u) for u in levels):
                levels.append(m)
    levels.sort()
    return levels


def _loop_solve_b(e, d, a, q0):
    """Least-squares b with b*d = e*a - q0*reflect(a)^2 for one candidate."""
    n = d.degree
    ra = reflect(a).coeffs
    rhs = np.zeros(2 * n - 1, dtype=complex)
    ea = np.convolve(e.coeffs, a.coeffs)
    rhs[-len(ea):] += ea
    ra2 = np.convolve(ra, ra)
    rhs[-len(ra2):] -= q0 * ra2
    conv = np.zeros((2 * n - 1, n - 1), dtype=complex)
    for j in range(n - 1):
        conv[j:j + n + 1, j] = d.coeffs
    b, *_ = np.linalg.lstsq(conv, rhs, rcond=None)
    res = np.linalg.norm(conv @ b - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return Polynomial(b), float(res)


class _DegenerateQ0(Exception):
    """The tuple's atilde has a numerically zero leading coefficient."""


def _loop_recover_one(sys, xi):
    """One tuple: Vandermonde solve, monic normalisation, np.roots Hurwitz
    test and least-squares numerator, with the criterion left at 0."""
    n = sys.n
    v_minus = np.vander(-sys.poles, n, increasing=True)
    at = np.linalg.solve(v_minus, xi)
    q0 = at[-1]
    if abs(q0) <= TOL.q0 * np.linalg.norm(at):
        raise _DegenerateQ0("degenerate leading coefficient")
    a_desc = (at / q0)[::-1]
    a_desc[0] = 1.0
    scale = 1.0 + np.max(np.abs(a_desc))
    real = bool(np.max(np.abs(a_desc.imag)) <= TOL.real * scale
                and abs(q0.imag) <= TOL.real * (1.0 + abs(q0)))
    if real:
        a = Polynomial(a_desc.real)
        q0_eff = q0.real
        hurwitz = is_hurwitz(a)
    else:
        a = Polynomial(a_desc)
        q0_eff = q0
        hurwitz = False
    b, ls_res = _loop_solve_b(sys.tf.numerator, sys.tf.denominator, a, q0_eff)
    if real and np.iscomplexobj(b.coeffs):
        im = np.max(np.abs(b.coeffs.imag))
        if im <= TOL.real * (1.0 + np.max(np.abs(b.coeffs))):
            b = Polynomial(b.coeffs.real)
    return a, b, q0_eff, real, hurwitz, ls_res


def loop_recover(sys, xis):
    """Recover a candidate from each row of xis, one tuple at a time, with
    phi = sum_i w_i xi_i^3 summed per tuple; returns the candidates in row
    order and the number of tuples dropped for a degenerate q0."""
    weights = 1.0 / (sys.e_at_poles * sys.dprime_at_poles * sys.d_at_minus_poles)
    out: List[CriticalPoint] = []
    degenerate = 0
    for xi in np.asarray(xis, dtype=complex):
        try:
            a, b, q0, real, hurwitz, ls_res = _loop_recover_one(sys, xi)
        except _DegenerateQ0:
            degenerate += 1
            continue
        out.append(CriticalPoint(
            xi=xi, a=a, b=b, q0=q0, criterion=complex(np.sum(xi**3 * weights)),
            is_real=real, is_hurwitz=hurwitz, ls_residual=ls_res))
    return out, degenerate
