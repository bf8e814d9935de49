"""Time the set-up a varfrac run pays before any work: the package import,
config validation, the model, the waiting law and the jump kernel family.

Run in a fresh interpreter so the import is cold:

    python3 bench/setup_probe.py SRC_DIR CONFIG_JSON

Prints the elapsed seconds.
"""

import json
import sys
from time import perf_counter


def main():
    sys.path.insert(0, sys.argv[1])
    start = perf_counter()
    import varfrac
    from varfrac.experiments import validate_config

    config = validate_config(json.loads(sys.argv[2]))
    model = varfrac.make_model(config["model"])
    varfrac.build_waiting_law(model.gamma_lo, model.gamma_hi)
    varfrac.kernel_family(model)
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main()
