"""Optimization of estimation strategies over quantum networks.

The toolkit models multi-round process combs and the testers that probe
them, poses finite-parameter estimation problems, and optimizes the
expected payoff by an interior-point semidefinite solver with dual
certificates.  Symmetric problems reduce to a smaller invariant program;
a product-rule lab checks when the optimum of independent tasks
factorizes and reproduces the counterexamples that break it.
"""

from . import errors
from .operators import (DIMENSION_CAP, LabeledOperator, SystemLabel,
                        min_eig, partial_trace, permute_systems)
from .networks import (CombSpace, QuantumComb, Tester, born_probability,
                       choi_of_channel, comb_of_memoryless_sequence,
                       comb_of_state, tensor_combs, tensor_testers,
                       validate_comb, validate_tester)
from .estimation import (EstimationProblem, expected_payoff, joint_problem,
                         payoff_operators, problem_from_raw_payoff)
from .sdp import (CertificateReport, SdpSolution, SolverOptions, YklResult,
                  build_primal, certify_dual, slater_point, solve,
                  yuen_kennedy_lax)
from .covariant import (CovariantResult, FiniteGroupAction, PhaseOptimum,
                        SumOfPhases, TwoPhaseOptimum, covariant_gamma,
                        cyclic_group, phase_action,
                        phase_estimation_optimum, phase_grid_problem,
                        product_group, qmax_state, sum_of_phases,
                        twirl, two_phase_correlated, two_phase_payoff_matrix,
                        two_phase_problem)
from .product_rule import (CorrelatedPayoffReport, MulticopyReport,
                           ProductRuleReport, counterexample_correlated_payoff,
                           counterexample_multicopy, verify_product_rule)

__version__ = "0.1.0"

__all__ = [
    "errors", "DIMENSION_CAP", "LabeledOperator", "SystemLabel",
    "min_eig", "partial_trace", "permute_systems", "CombSpace",
    "QuantumComb", "Tester", "born_probability", "choi_of_channel",
    "comb_of_memoryless_sequence", "comb_of_state", "tensor_combs",
    "tensor_testers", "validate_comb", "validate_tester",
    "EstimationProblem", "expected_payoff", "joint_problem",
    "payoff_operators", "problem_from_raw_payoff", "CertificateReport",
    "SdpSolution", "SolverOptions", "YklResult", "build_primal",
    "certify_dual", "slater_point", "solve", "yuen_kennedy_lax",
    "CovariantResult", "FiniteGroupAction", "PhaseOptimum", "SumOfPhases",
    "TwoPhaseOptimum", "covariant_gamma", "cyclic_group",
    "phase_action", "phase_estimation_optimum",
    "phase_grid_problem", "product_group", "qmax_state",
    "sum_of_phases", "twirl", "two_phase_correlated",
    "two_phase_payoff_matrix", "two_phase_problem", "CorrelatedPayoffReport",
    "MulticopyReport", "ProductRuleReport",
    "counterexample_correlated_payoff", "counterexample_multicopy",
    "verify_product_rule",
]
