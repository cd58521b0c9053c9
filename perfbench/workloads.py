"""The benchmark's workloads: what each one runs, at what size and load.

Pure data, importable without numpy, so the parent process (``run.py``)
can read it before any child has pinned BLAS threads.  ``README.md`` in
this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Thread-count variables of the BLAS and OpenMP runtimes; every child runs
#: with each set to 1.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Coalescing policy of every server the benchmark starts (the defaults of
#: ``InferenceServer``, spelled out so a change to them shows as a change
#: of program behaviour, not of benchmark settings).
MAX_BATCH = 8
MAX_WAIT_MS = 2.0
SERVER_WORKERS = 2
#: Seconds a served request may take before it counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: docs/sparse.md: a CSR product matches dense to float32 round-off
#: (``rtol=2e-5``).  A served row goes through several products, so the
#: tolerance is taken relative to the row's largest logit.
PACKED_RTOL = 2e-5
#: Training batch size of every workload.
BATCH_SIZE = 64
#: Distinct test samples a serving phase draws its requests from.
SAMPLE_POOL = 64
#: Untimed requests per model, back to back, before the timed phases.
WARMUP_PER_MODEL = 4 * MAX_BATCH * SERVER_WORKERS
#: ``serve_capacity_rps`` is the median over this many back-to-back bursts.
BURSTS = 5


@dataclass(frozen=True)
class Training:
    """One DropBack training run, from data synthesis to ``save_sparse``."""

    dataset: str  # "mnist" (28x28) or "cifar" (16x16)
    model: str  # "mnist-100-100" or "vgg-s-small"
    n_train: int
    n_test: int
    epochs: int  # the tracked set freezes after epochs // 2
    compression: float
    lr: float
    val_error_ceiling: float
    zero_untracked: bool = False
    #: Pixel noise of the synthetic images (``None``: the generator's default).
    noise: float | None = None


@dataclass(frozen=True)
class Load:
    """Open-loop traffic: a Poisson phase at a fixed rate, then a burst."""

    rate_rps: float
    requests: int  # in the Poisson phase
    burst: int  # requests submitted back to back (over BURSTS bursts)
    drain_limit_s: float  # queue must be empty this long after the last due time
    zipf_s: float = 0.0  # popularity exponent over the served models
    dense_planes_budget: float | None = None  # byte budget beyond pinned payloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    training: Training
    load: Load
    #: One entry per checkpoint of a serving workload, in popularity order:
    #: ``True`` for one trained with ``zero_untracked`` and registered
    #: ``packed=True``, so that it serves from CSR packs instead of a dense
    #: plane.  The checkpoints are trained once per run, from the seed,
    #: before any serving child starts.  Empty for a training workload,
    #: whose children each train (timed) and then serve their checkpoint.
    packed: tuple[bool, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mnist-mlp-dropback",
            why="MNIST-100-100 DropBack 4.5x (Table 1 row): data synthesis and the "
            "DropBack step dominate, no conv kernel runs; then one hot checkpoint served",
            training=Training(
                dataset="mnist", model="mnist-100-100", n_train=3000, n_test=2000,
                epochs=16, compression=4.5, lr=0.4, val_error_ceiling=0.06,
            ),
            load=Load(rate_rps=1000.0, requests=3000, burst=10000, drain_limit_s=0.25),
        ),
        Workload(
            name="cifar-vgg-dropback",
            why="VGG-S-small DropBack 5x on 16x16 CIFAR (Table 3 row): conv, pool "
            "and BN kernels dominate; control for data-path and step changes",
            training=Training(
                dataset="cifar", model="vgg-s-small", n_train=640, n_test=640,
                epochs=6, compression=5.0, lr=0.1, val_error_ceiling=0.25, noise=0.2,
            ),
            load=Load(rate_rps=400.0, requests=1200, burst=1500, drain_limit_s=0.25),
        ),
        Workload(
            name="serve-churn",
            why="eight Zipf-popular checkpoints, half dense, half packed, in a budget of "
            "three dense planes: about one request in four materializes under the lock",
            training=Training(
                dataset="mnist", model="mnist-100-100", n_train=1500, n_test=3000,
                epochs=10, compression=4.5, lr=0.4, val_error_ceiling=0.15, noise=0.25,
            ),
            packed=(False, True) * 4,
            load=Load(
                rate_rps=150.0, requests=1000, burst=3000, drain_limit_s=0.5,
                zipf_s=1.5, dense_planes_budget=3.0,
            ),
        ),
    )
}
