"""The one fixed threshold table of the pipeline.

All values are relative unless noted. The acceptance suite is calibrated
against them, and no caller can change them: a certificate rests on one
fixed set of thresholds. Every module reads ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # polynomial / linear algebra layer
    hurwitz: float = 1e-9             # stability margin: Re(root) < -hurwitz
    # validation layer
    pole_sep: float = 1e-7            # min pairwise pole distance / max |pole|
    coprime: float = 1e-12            # |e(pole)| / max|e coeff| floor
    cancel: float = 1e-6              # below coprime, a zero this near (/ |pole|)
                                      # confirms a pole-zero cancellation
    conj_closure: float = 1e-9        # pole-residue input: max |Im coeff| / max |coeff|
    # first-order-condition layer
    build_m_residual: float = 1e-10   # ||M V(-d) - diag(e) V(d)|| check
    q0: float = 1e-10                 # |leading atilde coeff| / ||atilde||
    real: float = 1e-6                # max |Im coeff| / (1 + max |coeff|)
    ls_reject: float = 1e-6           # admissibility floor for the numerator
                                      # least-squares fit
    # eigen layer, read only by stetter
    eig_residual: float = 1e-7        # normwise root residual, stetter._residual
    zero_solution: float = 1e-9       # the one zero root: ||xi|| / (1 + max ||xi||)
    conjugation: float = 1e-10        # imaginary part dropped by the real form of
                                      # the eigen stage, relative to its max entry
    polish_stop: float = 1e-15        # Newton stops: ||F(x)|| / (1 + ||x||^2)
    merge: float = 1e-9               # polished roots closer than this, relative
                                      # to the larger, are one root; distinct
                                      # roots of example 1 lie 1.9e-6 apart
    # selection layer
    value_real: float = 1e-6          # |Im phi| / (1 + |phi|)
    value_cluster: float = 1e-8       # distinctness of critical values
    cross_check: float = 1e-6         # |phi - distance^2| / (1 + phi)
    cvm_gap: float = 1e-6             # largest relative gap between a critical-
                                      # value-matrix eigenvalue and the pointwise
                                      # criterion value it matches
    # H2 norms
    norm_real: float = 1e-10          # ||G||^2: |Im| / max(|Re|, 1)
    norm_floor: float = 1e-12         # absolute: a ||G||^2 in (-norm_floor, 0) is 0
    shared_pole: float = 1e-12        # approximant pole to any other / max |pole|
    distance_real: float = 1e-8       # ||G - Gr||^2: |Im| / max(|Re|, 1)


TOL = Tolerances()
