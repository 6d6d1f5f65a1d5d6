"""The benchmark's workloads: how each one's inputs are generated from the
workload seed, and the report settings the timed runs use.

Inputs come from `brainalign.data.write_synth_dataset`, so the program
under test only ever reads files. Every workload trains on 32 px images;
`resolution` is the stimulus size features are extracted at.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # synth inputs
    num_train: int
    num_test: int
    num_stimuli: int
    subjects: int
    # report settings: one seed, one epoch over all num_train images
    rules: tuple[str, ...]
    batch_size: int
    resolution: int
    n_boot: int
    n_perm: int

    @property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(f"sub-{i:02d}" for i in range(1, self.subjects + 1))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train32",
        why="all five rules train at 32 px, so learning rules and the conv "
            "forward/backward kernels dominate",
        num_train=32, num_test=16, num_stimuli=40, subjects=3,
        rules=("random", "bp", "fa", "pc", "stdp"),
        batch_size=16, resolution=32,
        n_boot=100, n_perm=100),
    Workload(
        name="rsa_stats",
        why="100 stimuli (4950 pairs) and 10 subjects x 4 ROIs, so bootstrap, "
            "permutation and noise-ceiling statistics dominate and training is one "
            "batch per rule",
        num_train=16, num_test=16, num_stimuli=100, subjects=10,
        rules=("random", "bp", "fa"),
        batch_size=16, resolution=32,
        n_boot=150, n_perm=500),
    Workload(
        name="extract224",
        why="stimuli resized to 224 px, so eval-mode conv, pool and BN at 49x "
            "the training area dominate time and peak memory",
        num_train=16, num_test=16, num_stimuli=10, subjects=3,
        rules=("random", "bp"),
        batch_size=16, resolution=224,
        n_boot=100, n_perm=100),
)}
