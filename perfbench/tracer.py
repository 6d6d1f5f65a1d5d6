"""Span recorder for the traced benchmark run.

`SpanRecorder.install` replaces each traced public function with a
wrapper in every `brainalign` module namespace that binds it (modules
that did `from .network import forward_cached` hold their own binding).
Each call records one span: its name, start, end, parent span and, for
convolutions, statistical routines and extraction, the work it was asked
to do, computed from the call's arguments. Spans stay in memory until
`write_jsonl`. Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter

# module -> functions wrapped in a traced run
TRACED = {
    "ops": ("conv2d_forward", "conv2d_input_grad", "conv2d_weight_grad",
            "maxpool2x2_forward", "maxpool2x2_backward",
            "batchnorm_forward", "batchnorm_backward"),
    "network": ("forward_cached", "backward", "extract_all_taps",
                "save_checkpoint", "load_checkpoint"),
    "rules": ("train", "bp_step", "fa_step", "pc_infer_and_learn", "stdp_step",
              "stdp_conv_delta", "first_spike_times", "pc_inference",
              "evaluate_accuracy"),
    "stats": ("bootstrap_ci", "rank_rows", "spearman", "permutation_test",
              "noise_ceiling", "partial_spearman"),
    "rdm": ("rdm_from_features", "average_rdms", "pixel_rdm"),
    "data": ("read_cifar10_binary", "load_stimulus_dir", "load_brain_rdm_dir",
             "write_rdm_csv"),
    "filters": ("summarize_filters",),
    "pipeline": ("run_experiment",),
}

# the three input readers share one span name
SPAN_ALIASES = {
    "data.read_cifar10_binary": "data.read_inputs",
    "data.load_stimulus_dir": "data.read_inputs",
    "data.load_brain_rdm_dir": "data.read_inputs",
}

CONV_FUNCTIONS = ("conv2d_forward", "conv2d_input_grad", "conv2d_weight_grad")
# functions whose spans carry work counts read from their arguments
COUNTED_FUNCTIONS = CONV_FUNCTIONS + ("bootstrap_ci", "permutation_test", "extract_all_taps")


def conv_tag(spec, channels) -> str:
    """conv1/conv2/conv3 for the network blocks, pc for the 2x2 stride-2
    prediction specs of predictive coding."""
    if spec.kernel_size == 2 and spec.stride == 2:
        return "pc"
    return f"conv{list(channels).index(spec.out_channels) + 1}"


def conv_work(function: str, a) -> tuple[int, int]:
    """Computed (flop, bytes) of one conv call: 2*B*O*C*k^2*Ho*Wo
    multiply-adds, and the float64 bytes of its operands and result."""
    spec = a["spec"]
    if function == "conv2d_forward":
        B, _, H, W = a["x"].shape
        Ho, Wo = spec.out_size(H), spec.out_size(W)
        moved = a["x"].size + a["w"].size + B * spec.out_channels * Ho * Wo
    else:
        B, _, Ho, Wo = a["grad_out"].shape
        if function == "conv2d_input_grad":
            H, W = a["in_hw"]
            moved = a["grad_out"].size + a["w"].size + B * spec.in_channels * H * W
        else:
            moved = a["grad_out"].size + a["x"].size + math.prod(spec.weight_shape)
    flop = 2 * B * spec.out_channels * spec.in_channels * spec.kernel_size ** 2 * Ho * Wo
    return flop, 8 * moved


class SpanRecorder:
    """In-memory spans of one process; single-threaded, so nesting is a stack."""

    def __init__(self, channels):
        self.channels = tuple(channels)
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _attrs(self, module: str, function: str, a) -> tuple[str, dict]:
        name = f"{module}.{function}"
        if function in CONV_FUNCTIONS:
            flop, moved = conv_work(function, a)
            return f"{name}.{conv_tag(a['spec'], self.channels)}", {"flop": flop, "bytes": moved}
        if function == "bootstrap_ci":
            return name, {"resamples": int(a["n_boot"])}
        if function == "permutation_test":
            return name, {"permutations": int(a["n_perm"])}
        if function == "extract_all_taps":
            images = getattr(a["stimuli"], "images", a["stimuli"])
            return name, {"images": int(images.shape[0]), "resolution": int(images.shape[-1])}
        return SPAN_ALIASES.get(name, name), {}

    def _wrap(self, module: str, function: str, original):
        signature = inspect.signature(original)
        needs_args = function in COUNTED_FUNCTIONS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name, attrs = self._attrs(module, function, bound.arguments)
            else:
                name, attrs = self._attrs(module, function, None)
            record = {"id": len(self.spans), "name": name,
                      "parent": self._open[-1] if self._open else None, **attrs}
            self.spans.append(record)
            self._open.append(record["id"])
            record["start"] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                self._open.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "brainalign" or n.startswith("brainalign.")]
        for module, functions in TRACED.items():
            owner = sys.modules[f"brainalign.{module}"]
            for function in functions:
                original = getattr(owner, function)
                wrapper = self._wrap(module, function, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, self_s (duration minus direct children),
    total_s, and the summed work attributes."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[s["id"]]
        for key, value in s.items():
            if key in ("flop", "bytes", "resamples", "permutations"):
                entry[key] = entry.get(key, 0) + value
        if "images" in s:
            key = f"images_{s['resolution']}"
            entry[key] = entry.get(key, 0) + s["images"]
    return out
