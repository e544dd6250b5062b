"""Two-stage controller for auxiliary-task selection in multi-task training.

Stage 1 ranks candidate auxiliary tasks with a non-stationary
Beta-Bernoulli bandit driven by Thompson sampling; stage 2 tunes the
integer mixing ratio over the surviving tasks with Gaussian-process
optimization under a portfolio of acquisition functions.
"""
