"""Cold set-up of one job, timed in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR MODEL_JSON

Times importing contmeas, parsing and validating the model document,
building the default grid and computing the a-priori track, then prints the
elapsed seconds.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    src, model_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from contmeas.engine import compute_a_priori
    from contmeas.model import TimeGrid, parse_model, validate_model

    with open(model_path, encoding="utf-8") as stream:
        model = parse_model(stream.read())
    if not validate_model(model).passed:
        sys.exit("model validation failed")
    compute_a_priori(model, TimeGrid.make(model.horizon))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
