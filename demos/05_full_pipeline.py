"""
The full experiment pipeline, desk scale
========================================

Generates a synthetic dataset whose "brain" RDMs are built from an
untrained reference network's conv1 geometry plus noise, then runs the
complete pipeline (train -> extract -> RDM -> RSA -> statistics ->
report) for two conditions and two seeds. The untrained condition should
win at V1/V2 and the layer sweep should recover conv1, because that is
how the synthetic brain data was constructed.

Equivalent CLI:
    brainalign synth --out data --seed 0 --resolution 32 ...
    brainalign report --config data/synth.cfg
"""

import json
import tempfile
from pathlib import Path

from brainalign.data import SynthSpec, write_synth_dataset
from brainalign.pipeline import ExperimentConfig, run_experiment

CHANNELS = (4, 6, 8)

with tempfile.TemporaryDirectory(prefix="brainalign-demo-") as tmp:
    work = Path(tmp)
    spec = SynthSpec(num_train=160, num_test=40, num_classes=4, num_stimuli=40,
                     stimulus_size=32, extraction_resolution=32,
                     noise_amplitude=0.08, channels=CHANNELS)
    paths = write_synth_dataset(spec, seed=0, out_dir=work / "data")

    config = ExperimentConfig(
        train_data=(str(paths["train"]),),
        test_data=(str(paths["test"]),),
        stimuli_dir=str(paths["stimuli"]),
        brain_rdm_dir=str(paths["brain"]),
        out_dir=str(work / "run"),
        rules=("random", "bp"),
        seeds=(0, 1),
        epochs=2, batch_size=32, train_limit=160, resolution=32,
        channels=CHANNELS, num_classes=4,
        n_boot=300, n_perm=300, noise_ceiling_splits=5,
    )
    report = run_experiment(config)

    print(f"run directory (removed when the demo ends): {config.out_dir}\n")
    print(f"{'ROI':<5} {'layer':<6} {'condition':<8} {'rho':>8} {'std':>7} "
          f"{'95% CI':>18} {'p vs random':>12}")
    for roi, entry in report["rois"].items():
        for rule, c in entry["conditions"].items():
            ci = f"[{c['ci'][0]:+.3f}, {c['ci'][1]:+.3f}]"
            p = "-" if c["p_vs_random"] is None else f"{c['p_vs_random']:.4f}"
            print(f"{roi:<5} {entry['layer']:<6} {rule:<8} {c['rho']:>+8.3f} "
                  f"{c['seed_std']:>7.3f} {ci:>18} {p:>12}")

    print("\nbest layer per ROI (random condition):",
          report["best_layer"]["random"]["best_tap"])
    print("noise ceilings:", {roi: (round(e["noise_ceiling"]["lower"], 3),
                                    round(e["noise_ceiling"]["upper"], 3))
                              for roi, e in report["rois"].items()})
    print("test accuracy:", json.dumps(report["accuracy"]))
    print("\nartifacts:", ", ".join(sorted(
        p.name for p in (work / "run" / "tables").iterdir())))
