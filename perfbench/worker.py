"""One benchmark child process; `run.py` starts a fresh one per measurement.

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py report CONFIG [--trace-out SPANS.jsonl]

`setup` imports brainalign, parses the config and reads the workload's
inputs, which is what the CLI pays before any work. `report` runs
`run_experiment` on the config and prints one JSON line with its wall
time and the process's peak resident memory; with `--trace-out` it first
installs the span recorder and writes the spans there afterwards. Both
need `src/` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def setup(config_path: str) -> None:
    from brainalign import data
    from brainalign.pipeline import ExperimentConfig

    cfg = ExperimentConfig.from_file(config_path)
    data.read_cifar10_binary(list(cfg.train_data), limit=cfg.train_limit)
    data.read_cifar10_binary(list(cfg.test_data))
    data.load_stimulus_dir(cfg.stimuli_dir, resolution=cfg.resolution)
    data.load_brain_rdm_dir(cfg.brain_rdm_dir)


def report(config_path: str, trace_out: str | None) -> dict:
    import brainalign.pipeline

    cfg = brainalign.pipeline.ExperimentConfig.from_file(config_path)
    recorder = None
    if trace_out:
        from tracer import SpanRecorder

        recorder = SpanRecorder(cfg.channels)
        recorder.install()
    start = time.perf_counter()
    brainalign.pipeline.run_experiment(cfg)
    report_s = time.perf_counter() - start
    if recorder is not None:
        recorder.write_jsonl(trace_out)
    return {"report_s": report_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "report"))
    parser.add_argument("config")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.config)
    else:
        print(json.dumps(report(args.config, args.trace_out)))


if __name__ == "__main__":
    main()
