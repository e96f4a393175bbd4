"""One workload process: import cleanse, read the PLL files, train.

    python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the source tree, the PLL files, the
TrainConfig fields, whether to trace, and where to write the result.  Each
process pays import, file reading and set-up the way `cleanse train` does.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback


class NonFiniteLoss(RuntimeError):
    pass


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    VmHWM rather than ru_maxrss: a process spawned by vfork/exec starts its
    ru_maxrss at the parent's peak, which would report run.py's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, spec["cpus"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer, install

        tracer = Tracer(spec["run_id"])

    sys.path.insert(0, spec["src"])
    t0 = time.monotonic()
    import cleanse
    import cleanse.trainer as trainer

    t1 = time.monotonic()
    if not cleanse.__file__.startswith(spec["src"]):
        raise ImportError(f"cleanse imported from {cleanse.__file__}, not {spec['src']}")
    read_pll_file = cleanse.read_pll_file
    if tracer is not None:
        tracer.add("cleanse.import", t0, t1)
        install(tracer)
        read_pll_file = tracer.wrap("data.read_pll_file", read_pll_file)

    result = {"epochs": [], "epoch0_start": None, "fit_s": None, "error": None}

    def on_epoch(metrics, model):
        if metrics.epoch == 0:
            # monotonic, so run.py can subtract its own spawn time
            result["epoch0_start"] = time.monotonic() - metrics.seconds
        losses = (metrics.reweight_loss, metrics.count_loss, metrics.total_loss)
        if not all(math.isfinite(v) for v in losses):
            raise NonFiniteLoss(f"non-finite loss at epoch {metrics.epoch}: {losses}")
        result["epochs"].append(
            dict(epoch=metrics.epoch, reweight_loss=metrics.reweight_loss,
                 count_loss=metrics.count_loss, total_loss=metrics.total_loss,
                 test_accuracy=metrics.test_accuracy, seconds=metrics.seconds)
        )

    try:
        train = read_pll_file(spec["train"])
        test = read_pll_file(spec["test"])
        result["n_train"] = train.n
        config = trainer.TrainConfig(**spec["config"])
        start = time.monotonic()
        trainer.fit(train, test, config, on_epoch=on_epoch)
        result["fit_s"] = time.monotonic() - start
    except Exception:  # a failed run is reported, not fatal to the benchmark
        result["error"] = traceback.format_exc(limit=4)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
