"""Stage-2 walkthrough: GP search over integer mixing ratios.

The shared-parameter environment has a scarce, noisy primary dataset, two
useful auxiliaries, and one harmful one.  Good ratios mix in plenty of the
useful tasks and zero out the harmful task.  We run the portfolio-guided
GP search and an equal-budget random search side by side.
"""

import numpy as np

from auxmix.bandit import TaskSelection
from auxmix.environments import SharedParamMtlEnv
from auxmix.mixing import Stage2Config, random_ratios, run_stage2
from auxmix.runlog import derive_seed

env = SharedParamMtlEnv(
    task_profile=("primary", "useful", "useful", "harmful"),
    n_primary_train=48,
    primary_label_noise=0.8,
    n_aux=256,
    useful_shift=0.05,
    harmful_scale=1.0,
    total_batches=400,
)
tasks = TaskSelection(selected_task_ids=(0, 1, 2, 3), expected_utilities=(1.0,) * 4)
config = Stage2Config(n_samples=20, n_initial=5, rng_seed=7)

best_ratio, best_score, log, _ = run_stage2(env, tasks, config)

print("round  acq     ratio            score   incumbent")
for rec in log.records:
    ratio = tuple(rec["proposed_ratio"])
    print(f"{rec['round']:5d}  {rec['acquisition_used']:6s} {str(ratio):16s}"
          f" {rec['score']:.4f}  {rec['incumbent']:.4f}")

print(f"\nbest ratio {best_ratio.counts} with score {best_score:.4f}")
print("note the harmful last entry: the search drives it to zero.")

# Equal-budget random search on the same landscape for contrast.
rng = np.random.default_rng(derive_seed(7, "random-search"))
random_best = max(
    env.train_full(
        random_ratios(config.n_samples, 4, 20, rng),
        [derive_seed(7, "rs-eval", t) for t in range(config.n_samples)],
    )
)
print(f"\nrandom search, same budget: {random_best:.4f}")
print(f"guided search advantage:    {best_score - random_best:+.4f}")
