"""Benchmark of `brainalign report`, run from the root of a checkout:

    python3 perfbench/run.py --workload train32 --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from --seed (outside any timing), times
setup in fresh interpreters, then runs `run_experiment` in a fresh
process again and again, one at a time (a closed loop with one client),
until --seconds have passed. Every run's outputs are checked. The last
line of stdout is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-module metrics of a traced run (traced
and untraced runs alternate; the untraced ones give the tracing
overhead). Exits 2 without a result when `src/brainalign` is missing.

Raw samples, the machine record and every check go to
perfbench/_work/<workload>-seed<seed>-trace<0|1>/result.json, next to the
span files of traced runs; the run directory itself holds only what
`run_experiment` writes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import against_reference, headline_numbers, oracle_rho, tree_digest
from layers import counts, metric_specs, span_values
from tracer import aggregate, read_jsonl
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0      # the seed the recorded reference numbers belong to
SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3      # untraced runs per invocation, whatever --seconds says
MIN_TRACED_RUNS = 2     # so that work counts can be compared run to run
CHILD_TIMEOUT_S = 120
MAX_LOOP_S = 120        # stop starting runs here even below the minimum counts
SPAN_SUM_RTOL = 0.01    # summed span self times vs the traced report_s


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_kib():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            sizes[f"l{level}_kib"] = int((index / "size").read_text().strip().rstrip("K"))
    return sizes


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    try:
        record["blas_threads"] = _blas_threads()
    except OSError:
        pass
    try:
        record.update(_cache_kib())
    except (OSError, ValueError):
        pass
    return record


# ---------------------------------------------------------------------------
# Inputs and child processes
# ---------------------------------------------------------------------------

def make_inputs(workload, seed: int, work: Path) -> Path:
    """Write the workload's synth inputs and report config; returns the config path."""
    from brainalign.data import SynthSpec, write_synth_dataset
    from brainalign.pipeline import ExperimentConfig

    spec = SynthSpec(num_train=workload.num_train, num_test=workload.num_test,
                     num_stimuli=workload.num_stimuli, subjects=workload.subject_ids,
                     extraction_resolution=32)
    paths = write_synth_dataset(spec, seed, work / "inputs")
    cfg = ExperimentConfig(
        train_data=(str(paths["train"]),), test_data=(str(paths["test"]),),
        stimuli_dir=str(paths["stimuli"]), brain_rdm_dir=str(paths["brain"]),
        out_dir=str(work / "run"), rules=workload.rules, seeds=(0,), epochs=1,
        batch_size=workload.batch_size, train_limit=workload.num_train,
        resolution=workload.resolution, n_boot=workload.n_boot, n_perm=workload.n_perm)
    path = work / "report.cfg"
    cfg.to_file(path)
    return path


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def time_setup(config: Path) -> float:
    start = time.perf_counter()
    proc = run_child(["setup", config])
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed:\n{proc.stderr[-2000:]}")
    return elapsed


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------

class Invocation:
    """Timed runs of one workload and the checks on their outputs."""

    def __init__(self, workload, seed: int, work: Path, config: Path, reference):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = config
        self.run_dir = work / "run"
        self.brain_dir = work / "inputs" / "brain"
        self.reference = reference
        self.checks: list[tuple[str, bool, str]] = []
        self.cells_attempted = 0
        self.cells_failed = 0
        self.crashed = False
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.first_digest = None
        self.first_report = None

    @property
    def attempted(self) -> int:
        return self.cells_attempted + len(self.checks)

    @property
    def failed(self) -> int:
        return self.cells_failed + sum(1 for _, ok, _ in self.checks if not ok)

    def run(self, traced: bool) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        index = len(self.untraced) + len(self.traced)
        spans = self.work / f"spans-{index}.jsonl"
        cmd = ["report", self.config] + (["--trace-out", spans] if traced else [])
        n_cells = len(self.workload.rules)  # one seed per rule
        self.cells_attempted += n_cells
        try:
            proc = run_child(cmd)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            # a run that did not finish fails all of its cells
            if proc is not None:
                sys.stderr.write(proc.stderr[-4000:])
            self.cells_failed += n_cells
            self.crashed = True
            return
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((self.run_dir / "report.json").read_text())
        for failure in report["failures"]:
            print(f"failed cell: {failure}", file=sys.stderr)
        self.cells_failed += len(report["failures"])
        digest, sample["run_dir_bytes"] = tree_digest(self.run_dir)
        if self.first_digest is None:
            self.first_digest, self.first_report = digest, report
            self.checks.extend(oracle_rho(self.run_dir, self.brain_dir, report))
            if self.seed == REFERENCE_SEED and self.reference:
                self.checks.extend(against_reference(report, self.reference["numbers"]))
        else:
            self.checks.append((f"run {index} outputs identical to run 0",
                                digest == self.first_digest, digest[:16]))
        if traced:
            self._check_trace(sample, spans, index)
            self.traced.append(sample)
        else:
            self.untraced.append(sample)

    def _check_trace(self, sample: dict, spans: Path, index: int) -> None:
        agg = aggregate(read_jsonl(spans))
        sample["agg"] = agg
        sample["counts"] = counts(agg)
        span_sum = sum(e["self_s"] for e in agg.values())
        err = abs(span_sum - sample["report_s"]) / sample["report_s"]
        self.checks.append((f"run {index} span self times sum to report_s",
                            err <= SPAN_SUM_RTOL, f"relative error {err:.2e}"))
        if self.traced:
            self.checks.append((f"run {index} work counts repeat",
                                sample["counts"] == self.traced[0]["counts"], ""))
        if self.reference and "counts" in self.reference:
            self.checks.append((f"run {index} work counts match reference",
                                sample["counts"] == self.reference["counts"], ""))


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(inv: Invocation, setup: list[float]) -> dict:
    return {
        "report_s": {"value": median(s["report_s"] for s in inv.untraced), "unit": "s"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mib": {"value": median(s["peak_rss_mib"] for s in inv.untraced),
                         "unit": "MiB"},
    }


def per_layer(inv: Invocation) -> dict:
    runs = [span_values(s["agg"]) for s in inv.traced]
    units = {spec["name"]: spec["unit"] for spec in metric_specs()}
    # work counts repeat exactly (checked); times are medians over traced runs
    values = {name: runs[0][name] if units[name] in ("count", "GFLOP")
              else median(run[name] for run in runs) for name in runs[0]}
    values["data.run_dir_bytes"] = inv.traced[-1]["run_dir_bytes"]
    values["trace.overhead_frac"] = (median(s["report_s"] for s in inv.traced)
                                     / median(s["report_s"] for s in inv.untraced) - 1.0)
    assert set(values) == set(units), set(values) ^ set(units)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def record_reference(inv: Invocation) -> None:
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    entry = {"seed": inv.seed, "numbers": headline_numbers(inv.first_report)}
    if inv.traced:
        entry["counts"] = inv.traced[0]["counts"]
    reference[inv.workload.name] = entry
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's numbers (at --seed {REFERENCE_SEED}) "
                             "and work counts (with --trace 1) as the reference")
    args = parser.parse_args()
    if not (SRC / "brainalign" / "__init__.py").is_file():
        print(f"error: {SRC / 'brainalign'} not found; run from a brainalign checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.getLogger("brainalign").setLevel(logging.ERROR)  # synth's BN warnings
    if args.record_reference and args.seed != REFERENCE_SEED:
        print(f"error: the reference belongs to --seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    machine = machine_record()
    config = make_inputs(workload, args.seed, work)
    setup = [time_setup(config) for _ in range(SETUP_REPEATS)]
    reference = None
    if not args.record_reference and REFERENCE_PATH.exists():
        reference = json.loads(REFERENCE_PATH.read_text()).get(workload.name)
    inv = Invocation(workload, args.seed, work, config, reference)

    start = time.perf_counter()
    walls = []
    while True:
        enough = len(inv.untraced) >= MIN_TIMED_RUNS if not args.trace else (
            len(inv.untraced) >= MIN_TRACED_RUNS and len(inv.traced) >= MIN_TRACED_RUNS)
        elapsed = time.perf_counter() - start
        # start a run only if a typical run ends within --seconds
        expected_end = elapsed + (median(walls) if walls else 0.0)
        if (enough or inv.crashed) and expected_end > args.seconds:
            break
        if elapsed >= MAX_LOOP_S:
            break
        inv.run(traced=bool(args.trace) and len(inv.traced) < len(inv.untraced))
        walls.append(time.perf_counter() - start - elapsed)
    shutil.rmtree(inv.run_dir, ignore_errors=True)

    if args.record_reference:
        record_reference(inv)
    ok_runs = bool(inv.untraced) and (bool(inv.traced) or not args.trace)
    metrics = (per_layer(inv) if args.trace else end_to_end(inv, setup)) if ok_runs else {}
    fail_frac = inv.failed / inv.attempted
    result = {"correct": inv.failed == 0 and ok_runs, "attempted": inv.attempted,
              "failed": inv.failed, "metrics": metrics}

    (work / "result.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_s_samples": setup,
        "untraced": inv.untraced,
        "traced": [{k: v for k, v in s.items() if k != "agg"} for s in inv.traced],
        "checks": inv.checks, "fail_frac": fail_frac, "result": result,
    }, indent=1) + "\n")

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {workload.name}, seed {args.seed}: {len(inv.untraced)} untraced "
          f"and {len(inv.traced)} traced runs of run_experiment, "
          f"{len(setup)} setup runs")
    for name, ok, detail in inv.checks:
        if not ok:
            print(f"FAILED check: {name} {detail}")
    if not args.trace and metrics:
        for name, m in metrics.items():
            print(f"{name:14s} {m['value']:.4f} {m['unit']}")
    elif metrics:
        top = sorted((k for k in metrics if k.endswith(".self_s")),
                     key=lambda k: -metrics[k]["value"])[:10]
        for name in top:
            print(f"{name:44s} {metrics[name]['value']:.4f} s")
        print(f"{'trace.overhead_frac':44s} {metrics['trace.overhead_frac']['value']:.4f}")
    print(f"{'fail_frac':14s} {fail_frac:.4f} ratio ({inv.failed} of {inv.attempted} "
          f"operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
