"""Peak memory of the largest stage-2 search a config may ask for, against its bound.

Runs ``LONGINIT512`` of ``tests/configs.py``, a planted ``no_stage1`` run
at ``n_samples`` = ``gp.MAX_N_SAMPLES`` (512), 510 of them random, with
``pool_size`` = ``mixing.MAX_POOL_SIZE`` (2^14) in a fresh interpreter, BLAS
on one thread, and reads the child's ``ru_maxrss`` (in MB of 2^20 bytes,
as ``perfbench`` reports ``peak_rss_mb``).  The bound is the one the comment
above ``mixing.MAX_POOL_SIZE`` states; the script exits 1 above it::

    PYTHONPATH=src python tests/memory_bound.py
"""

from __future__ import annotations

import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

from configs import LONGINIT512, section

MIXING = Path(__file__).resolve().parents[1] / "src" / "auxmix" / "mixing.py"

RUN = f"""
from auxmix import cli, config
cli._outcome(config.to_pipeline_config({section(LONGINIT512, "stage2", pool_size=2**14)!r}))
"""


def stated_bound_mb() -> float:
    """The peak RSS that the ``MAX_POOL_SIZE`` comment promises, in MB."""
    found = re.search(r"peaks below (\d+) MB", MIXING.read_text(encoding="utf-8"))
    if found is None:
        raise SystemExit(f"no 'peaks below N MB' bound in {MIXING}")
    return float(found.group(1))


def main() -> int:
    bound = stated_bound_mb()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", RUN], check=True, env=env)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"largest stage-2 search: {seconds:.1f} s, peak RSS {peak:.1f} MB, bound {bound:g} MB")
    return 0 if peak <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
