"""One set-up measurement, run in a fresh interpreter by run.py.

Usage: probe_setup.py SRC_DIR DATASET_SPEC_JSON

Times importing catebounds (numpy and scipy with it) and loading the dataset
through `runner.load_dataset`, and prints one JSON line with the seconds and
the row counts loaded.
"""

import json
import sys
import time


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    started = time.perf_counter()
    from catebounds.runner import DatasetSpec, load_dataset
    train, test = load_dataset(DatasetSpec(**spec))
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "n_train": train.n, "n_test": test.n}))


if __name__ == "__main__":
    main()
