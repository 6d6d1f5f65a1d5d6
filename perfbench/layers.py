"""Per-module metrics of the traced run: their names, units and how each is
computed from the aggregated spans (see tracer.aggregate).

Names are `<module>.<function>[.<conv layer>].<metric>`. Every span
reports `.calls` and `.self_s`; the extras below add rates whose base is
a work count computed from the call arguments, never measured.
"""

from __future__ import annotations

CONV_TAGS = {
    "conv2d_forward": ("conv1", "conv2", "conv3", "pc"),
    "conv2d_input_grad": ("conv2", "conv3", "pc"),
    "conv2d_weight_grad": ("conv1", "conv2", "conv3", "pc"),
}

# span name -> extra metrics beyond calls and self_s
SPAN_EXTRAS: dict[str, tuple[str, ...]] = {
    f"ops.{fn}.{tag}": ("gflop_per_s", "gflop")
    for fn, tags in CONV_TAGS.items() for tag in tags}
SPAN_EXTRAS.update({
    "ops.maxpool2x2_forward": (),
    "ops.maxpool2x2_backward": (),
    "ops.batchnorm_forward": (),
    "ops.batchnorm_backward": (),
    "network.forward_cached": (),
    "network.backward": (),
    "network.extract_all_taps": ("s_per_image", "images_32", "images_224"),
    "network.save_checkpoint": (),
    "network.load_checkpoint": (),
    "rules.train": (),
    "rules.bp_step": ("s_per_batch",),
    "rules.fa_step": ("s_per_batch",),
    "rules.pc_infer_and_learn": ("s_per_batch",),
    "rules.stdp_step": ("s_per_batch",),
    "rules.stdp_conv_delta": (),
    "rules.first_spike_times": (),
    "rules.pc_inference": (),
    "rules.evaluate_accuracy": ("total_s",),
    "stats.bootstrap_ci": ("s_per_call", "resamples_per_s", "resamples"),
    "stats.rank_rows": (),
    "stats.spearman": (),
    "stats.permutation_test": ("s_per_call", "permutations"),
    "stats.noise_ceiling": ("s_per_call",),
    "stats.partial_spearman": (),
    "rdm.rdm_from_features": (),
    "rdm.average_rdms": (),
    "rdm.pixel_rdm": (),
    "data.read_inputs": (),
    "data.write_rdm_csv": (),
    "filters.summarize_filters": (),
    "pipeline.run_experiment": (),
})

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "s_per_batch": ("s", "lower"),
    "s_per_call": ("s", "lower"),
    "s_per_image": ("s", "lower"),
    "gflop_per_s": ("GFLOP/s", "higher"),
    "gflop": ("GFLOP", "lower"),
    "resamples_per_s": ("1/s", "higher"),
    "resamples": ("count", "lower"),
    "permutations": ("count", "lower"),
    "images_32": ("count", "lower"),
    "images_224": ("count", "lower"),
}

# metrics that are not per span
OTHER_METRICS = {
    "data.run_dir_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# work counts, which must repeat exactly from run to run
COUNT_KEYS = ("calls", "flop", "bytes", "resamples", "permutations",
              "images_32", "images_224")


def metric_specs() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    specs = []
    for span, extras in SPAN_EXTRAS.items():
        for metric in ("calls", "self_s") + extras:
            unit, better = UNITS[metric]
            specs.append({"name": f"{span}.{metric}", "unit": unit, "better": better})
    for name, (unit, better) in OTHER_METRICS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def counts(agg: dict[str, dict]) -> dict[str, dict]:
    """The work counts of one traced run, keyed by span name."""
    return {span: {k: v for k, v in entry.items() if k in COUNT_KEYS}
            for span, entry in sorted(agg.items())}


def span_values(agg: dict[str, dict]) -> dict[str, float]:
    """Per-span metric values of one traced run; spans never entered read 0."""
    values = {}
    for span, extras in SPAN_EXTRAS.items():
        e = agg.get(span, {})
        calls = e.get("calls", 0)
        self_s, total_s = e.get("self_s", 0.0), e.get("total_s", 0.0)
        images = e.get("images_32", 0) + e.get("images_224", 0)
        derived = {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "s_per_batch": total_s / calls if calls else 0.0,
            "s_per_call": total_s / calls if calls else 0.0,
            "s_per_image": total_s / images if images else 0.0,
            "gflop": e.get("flop", 0) / 1e9,
            "gflop_per_s": e.get("flop", 0) / 1e9 / self_s if self_s else 0.0,
            "resamples": e.get("resamples", 0),
            "resamples_per_s": e.get("resamples", 0) / total_s if total_s else 0.0,
            "permutations": e.get("permutations", 0),
            "images_32": e.get("images_32", 0),
            "images_224": e.get("images_224", 0),
        }
        for metric in ("calls", "self_s") + extras:
            values[f"{span}.{metric}"] = derived[metric]
    return values
