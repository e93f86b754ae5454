"""Frozen constants of the perf ledger.

``BENCHMARK.json`` admits only the contract's keys, so the constants the
run protocol depends on live here.  They are part of the instrument:
changing one rescales recorded numbers, so only a ``benchmark`` PR may
touch them (and must then re-measure the baseline and regenerate
``golden.json``).
"""

from __future__ import annotations

#: Iterations of ``calib.calibration_loop`` per calibration unit (0.19-0.29 s
#: here, depending on what else the shared box is doing).
CALIB_ITERATIONS = 2600
#: ``setup_s`` is reported in seconds of a machine on which one calibration
#: takes this long: set-up wall time / bracketing calibrations * this.
CALIB_REFERENCE_S = 0.2
#: One chunk (~20 ms) of the calibration that brackets every item of a round.
CHUNK_ITERATIONS = 260
#: An item sample whose two bracketing chunks differ by more than this share
#: is unsteady: it is counted and left out while the item has steady samples.
CALIB_TOLERANCE = 0.25
#: An untraced run is split over this many fresh processes, each measuring
#: for a share of ``--seconds``: ``setup_s`` is the median of their set-ups
#: and ``round_norm`` pools the rounds of all of them.
PROCESSES = 3
#: Measured rounds per process: at least this many, then until its share of
#: ``--seconds`` has passed (so a run has at least 6 rounds).
MIN_ROUNDS = 2
#: Traced runs alternate untraced and traced rounds; at least this many pairs.
MIN_TRACED_ROUNDS = 2

# ---------------------------------------------------------------- workloads
#: zoo-compile: models on ``vu9p-slr`` at factor 64, kernels on ``zu3eg`` at 32.
ZOO_MODEL_TARGET = ("vu9p-slr", 64)
ZOO_KERNEL_TARGET = ("zu3eg", 32)

#: kernel-dse: a frozen draw from ``build_space("full")`` over PolyBench.
#: The draw is fixed (``--seed`` only orders the points) because design_qor
#: and py_calls must not depend on the seed.
DSE_SAMPLE = 64
DSE_SAMPLE_SEED = 2024
DSE_PROMOTE_TOP = 0.25

#: cache-fill / cache-replay: ``build_space("small")`` over this suite.  The
#: four ``n=16`` instances fit the IR cache's interpreter budget and are
#: exec-verified at store time; the default-size kernels and the DNNs exceed
#: it and take the print -> parse path only.  Stencils are left out: one
#: stencil's exec-verify would turn the round into a one-kernel test.
CACHE_SUITE = (
    "atax@n=16",
    "bicg@n=16",
    "mvt@n=16",
    "gesummv@n=16",
    "2mm",
    "correlation",
    "syr2k",
    "lenet",
    "mlp",
)
#: cache-replay round: this many all-hit passes, then this many IR-resume
#: passes (QoR cache off, IR cache warm).  Weighted so that each side is a
#: visible share of the round (an all-hit pass is ~25x cheaper).
REPLAY_HIT_PASSES = 16
REPLAY_RESUME_PASSES = 2

#: validate: kernel instances handed to ``validate_pipeline`` (the fuzz pool
#: plus correlation), then one fixed-seed ``fuzz_transforms`` run.  The fuzz
#: seed is frozen because the work a fuzz run does varies +-12 % with it.
VALIDATE_KERNELS = (
    ("2mm", {"n": 8}),
    ("3mm", {"n": 8}),
    ("atax", {"n": 8}),
    ("bicg", {"n": 8}),
    ("mvt", {"n": 8}),
    ("gesummv", {"n": 8}),
    ("symm", {"n": 8}),
    ("syr2k", {"n": 8}),
    ("jacobi-2d", {"n": 8, "tsteps": 2}),
    ("seidel-2d", {"n": 8, "tsteps": 2}),
    ("correlation", {"n": 8}),
)
VALIDATE_PLATFORM = "zu3eg"
#: Kernels with non-integer math validate under this relative tolerance.
VALIDATE_TOLERANCES = {"correlation": 1e-9}
FUZZ_COUNT = 12
FUZZ_SEED = 7

#: Designs the traced run's direct layer probes visit per round, at most.
PROBE_DESIGNS = 24
#: Interpreter budget of the direct ``ir.interp`` probe (ops).
PROBE_INTERP_MAX_OPS = 250_000

#: ``--smoke``: one round over reduced inputs (the tier-1 smoke test), with a
#: short calibration because it asserts no timing.
SMOKE_CALIB_ITERATIONS = 260
SMOKE_ZOO = ("lenet", "mlp", "2mm", "atax")
SMOKE_DSE_SAMPLE = 6
SMOKE_CACHE_SUITE = ("atax@n=4", "mlp")
SMOKE_VALIDATE_KERNELS = (("atax", {"n": 8}), ("jacobi-2d", {"n": 8, "tsteps": 2}))
SMOKE_FUZZ_COUNT = 3
