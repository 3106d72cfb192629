"""Tolerance bundle threaded through the pipeline.

All values are relative unless noted. The defaults are the ones the
acceptance suite is calibrated against, and the command line uses them
as they are: a certificate rests on one fixed set of thresholds.
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
    # first-order-condition layer
    build_m_residual: float = 1e-10   # ||M V(-d) - diag(e) V(d)|| check
    q0: float = 1e-10                 # |leading atilde coeff| / ||atilde||
    real: float = 1e-6                # max |Im coeff| / (1 + max |coeff|)
    # eigen layer
    eig_residual: float = 1e-7        # normwise root residual, stetter._residual
    zero_solution: float = 1e-9       # the one zero root: ||xi|| / (1 + max ||xi||)
    conjugation: float = 1e-10        # imaginary part dropped by the real form of
                                      # the eigen stage, relative to its max entry
    # selection layer
    value_real: float = 1e-6          # |Im phi| / (1 + |phi|)
    value_cluster: float = 1e-8       # distinctness of critical values
    cross_check: float = 1e-6         # |phi - distance^2| / (1 + phi)
