"""Record the train-rule reference values for workload seeds 0-99.

    python3 perfbench/record_reference.py

For each seed this runs one train-rule operation and stores its final train
loss and validation macro-F1 in perfbench/reference.json, which run.py checks
later runs against within the stated tolerance; any other seed is vouched
for by its value modulo 100. It rewrites the whole file. Re-record only when
a change is meant to alter training results, and say so in the change.
"""

from __future__ import annotations

import json

import run

# Batching and vectorisation change summation order, so the loss may move in
# the last digits; macro-F1 is a ratio of counts and must not move at all.
TOLERANCE = {"train_loss_rel": 1e-6, "val_macro_f1_abs": 1e-9}


def main() -> None:
    sizes = dict(run.TrainRule.sizes)
    seeds = {}
    for seed in range(run.RECORDED_SEEDS):
        wl = run.TrainRule(seed, sizes, workdir=None)
        wl.setup()
        _checkpoint, history = wl.op()
        seeds[str(seed)] = {"train_loss": history[-1]["train_loss"],
                            "val_macro_f1": history[-1]["val_macro_f1"]}
        print(seed, seeds[str(seed)], flush=True)
    doc = {"sizes": sizes, "tolerance": TOLERANCE,
           "git_commit": run.run_metadata()["git_commit"], "seeds": seeds}
    run.TrainRule.reference_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
