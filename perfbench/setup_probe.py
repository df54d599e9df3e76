"""One set-up measurement, in a fresh process.

Times importing ``sde_lab`` from the checkout plus building every model the
workload uses (``build_axis_aligned`` then ``build_general``, once per
distinct configuration) and prints ``{"setup_s": seconds}``.

Usage: python3 setup_probe.py ROOT MODELS_JSON
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    root, models = argv[0], json.loads(argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, f"{root}/src")
    import sde_lab.cli as cli
    import sde_lab.model as model

    for kwargs in models:
        params = cli.ExperimentConfig(**kwargs).model_params()
        model.build_general(model.build_axis_aligned(params))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
