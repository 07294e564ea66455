"""Differential-testing harness for the hot-path performance layer.

Every optimisation in the performance layer (incremental gain sums,
skyline select-before-materialise + incremental objectives, knapsack solve
memoisation) is paired here with a *naive oracle* — a frozen,
obviously-correct reference implementation — and driven over randomised
scenarios (Hypothesis). The optimised code must agree with the oracle:
bit-for-bit where the optimisation is exact (skyline, knapsack memo),
within the repo's money/time epsilons where it is tolerance-preserving
(decay-rescaled gain sums).
"""
