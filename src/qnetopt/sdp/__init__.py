"""Semidefinite programming engine.

`standard_form` builds the tester optimization as a block-diagonal SDP with
structured equality constraints, `ipm` solves such SDPs with a feasible-start
primal-dual path-following method, and `engine` wraps both into solve(),
certificate extraction, and the pretty-good-measurement style state
discrimination front end.
"""

from .engine import (CertificateReport, SdpSolution, YklResult, certify_dual,
                     slater_point, solve, yuen_kennedy_lax)
from .ipm import IpmResult, SolverOptions
from .standard_form import DualState, StandardSdp, build_primal

__all__ = [
    "CertificateReport", "DualState", "IpmResult", "SdpSolution",
    "SolverOptions", "StandardSdp", "YklResult", "build_primal",
    "certify_dual", "slater_point", "solve", "yuen_kennedy_lax",
]
