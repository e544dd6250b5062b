"""Stage-1 walkthrough: Thompson sampling finds the useful auxiliaries.

A planted environment with known per-task success rates lets us check the
bandit against ground truth: tasks with theta above one half should end up
in the selection, the rest should not.
"""

import numpy as np

from auxmix.bandit import BanditConfig, belief_path, initial_arms, run_stage1, thompson_draws
from auxmix.environments import PlantedBanditEnv

# Ground truth: task 0 is the primary, tasks 1-2 genuinely help (theta 0.9),
# tasks 3-4 actively hurt (theta 0.1).
THETA = [0.9, 0.9, 0.9, 0.1, 0.1]

config = BanditConfig(n_tasks=5, n_rounds=200, rng_seed=0)
env = PlantedBanditEnv(THETA)

print("priors:")
alpha, beta = initial_arms(config)
for k, (a, b) in enumerate(zip(alpha, beta)):
    print(f"  task {k}: Beta({a:.0f}, {b:.0f})  E[theta] = {a / (a + b):.3f}")

selection, log = run_stage1(env, config)

# A few snapshots of the posterior as the run progresses.  The log keeps
# each round's choice and reward; folding the update over them gives the
# beliefs after every round (index 0 is the prior).
print("\nposterior means over time:")
path = list(belief_path(log.records, config))
for t in (0, 9, 49, 99, 199):
    alpha, beta = path[t + 1]
    means = alpha / (alpha + beta)
    print(f"  round {t + 1:3d}: " + "  ".join(f"{m:.3f}" for m in means))

# The log keeps no draws either: the seeded generator redraws them from the
# beliefs before each round, and each round trains the arm of the largest.
t = 9
draws = thompson_draws(log.records, config)
print(f"\nround {t + 1} redrawn utilities: " + "  ".join(f"{d:.3f}" for d in draws[t]))
print(f"  largest at task {int(np.argmax(draws[t]))}, logged choice task {log.records[t]['selected_arm']}")

print("\nhow often each arm was trained:")
counts = np.bincount([r["selected_arm"] for r in log.records], minlength=5)
for k, c in enumerate(counts):
    print(f"  task {k}: {c:3d} rounds   (theta* = {THETA[k]})")

print("\nfinal beliefs:")
for k, (a, b) in enumerate(selection.final_arms):
    print(f"  task {k}: Beta({a:.2f}, {b:.2f})")

print(f"\nselected tasks: {list(selection.selected_task_ids)}")
print("expected utilities:",
      [round(u, 3) for u in selection.expected_utilities])
print("\nexpected: useful tasks 1 and 2 kept, harmful 3 and 4 dropped.")
