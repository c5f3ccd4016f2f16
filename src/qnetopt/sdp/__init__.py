"""Semidefinite programming engine.

`standard_form` builds the tester optimization as a block-diagonal SDP with
structured equality constraints, `ipm` solves such SDPs with a feasible-start
primal-dual path-following method, and `engine` wraps both into solve(),
certificate extraction through the program's own A^T, and the minimum-error
state discrimination front end (yuen_kennedy_lax).
"""

from .engine import (CertificateReport, SdpSolution, YklResult, certify_dual,
                     slater_point, solve, yuen_kennedy_lax)
from .ipm import IpmResult, SolverOptions
from .standard_form import StandardSdp, build_primal

__all__ = [
    "CertificateReport", "IpmResult", "SdpSolution", "SolverOptions",
    "StandardSdp", "YklResult", "build_primal", "certify_dual",
    "slater_point", "solve", "yuen_kennedy_lax",
]
