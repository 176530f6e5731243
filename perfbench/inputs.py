"""Workload definitions and the seed -> inputs generator.

A workload fixes the shape of the problem (grid, ranks, backend, simulated
span, checkpoint cadence). The seed only draws the physics perturbations the
model exposes for ensembles, so every seed is the same amount of work: the
land mask stays fixed (bathymetry seed 42, the profiling configuration),
because its sea-point census sets the work per block and another mask would be
another problem.
"""

MASK64 = (1 << 64) - 1

# Shared by every workload: the coarse 100-km grid shrunk x6 with 15 levels.
BASE = {
    "shrink": 6,
    "nz": 15,
    "bathymetry_seed": 42,
    "ldm_staging": "double",
    "setup_reps": 31,
}

WORKLOADS = {
    # One rank, Serial: kernels do most of the work, comm is idle and halo
    # runs single-rank self-copies only. The plain single-threaded baseline.
    "ocean-1rank": {"kind": "model", "nranks": 1, "backend": "serial",
                    "batch_steps": 60, "warmup_steps": 3},
    # The same global grid on 2x2 blocks: barotropic-subcycle halo traffic
    # and the health-check allreduce dominate, kernels take little.
    "halo-4rank": {"kind": "model", "nranks": 4, "backend": "serial",
                   "batch_steps": 60, "warmup_steps": 3},
    # Four seed-perturbed members on one rank each, two at a time, with
    # checkpoints every 4 steps and a quota of half a member's span, so every
    # member is preempted once and warm-starts from its checkpoint.
    "ensemble-ckpt": {"kind": "farm", "nranks": 1, "backend": "serial",
                      "batch_steps": 16, "warmup_steps": 0, "members": 4,
                      "max_concurrent": 2, "checkpoint_every": 4, "quota_steps": 8},
    # The ocean-1rank grid on the simulated Sunway core group: the same kernel
    # functors through the registry and double-buffered LDM staging, unfused.
    "sunway-1rank": {"kind": "model", "nranks": 1, "backend": "athread",
                     "batch_steps": 60, "warmup_steps": 3},
}


def _fnv1a64(text):
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


class SeedStream:
    """splitmix64 stream keyed on (workload, seed): same key, same numbers."""

    def __init__(self, workload, seed):
        self.state = (_fnv1a64(workload) ^ (seed & MASK64)) & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * (self.next_u64() >> 11) / float(1 << 53)


def inputs(workload, seed):
    """The generated model inputs of one (workload, seed)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[workload]
    rng = SeedStream(workload, seed)
    out = {
        "initial_t_perturb_c": round(rng.uniform(-0.25, 0.25), 6),
        "wind_stress_scale": round(rng.uniform(0.95, 1.05), 6),
        "sst_target_offset_c": round(rng.uniform(-0.25, 0.25), 6),
    }
    if spec["kind"] == "farm":
        members = spec["members"]
        out["member_wind"] = [round(rng.uniform(0.9, 1.1), 6) for _ in range(members)]
        out["member_sst"] = [round(rng.uniform(-0.5, 0.5), 6) for _ in range(members)]
    return out


def driver_args(workload, seed, seconds, traced_seconds, checkpoint_root):
    """key=value arguments of perfbench_driver for one run."""
    params = dict(BASE)
    params.update(WORKLOADS[workload])
    params.pop("members", None)
    params.update(inputs(workload, seed))
    params.update({"workload": workload, "seconds": seconds,
                   "traced_seconds": traced_seconds, "checkpoint_root": checkpoint_root})
    args = []
    for key, value in sorted(params.items()):
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        args.append(f"{key}={value}")
    return args
