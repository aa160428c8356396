"""The entry points the smoke gates run: examples and CLI invocations.

``tests/smoke/test_examples.py`` runs every example in its own process;
``tests/smoke/reachability.py`` runs the examples and the CLI list
below in one traced process.  Both take the examples' arguments from
:data:`SMALL_ARGS`.  This module imports nothing from ``repro``, so the
tracer can be installed before the package loads.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

# Arguments that keep a long-running example short.
SMALL_ARGS = {"convergence_microbenchmark.py": ["20"]}

# (argv, expected exit status), run in order in one working directory:
# later invocations read the files earlier ones write.  Every
# subcommand runs at its defaults and with its main flags.
CLI_RUNS = [
    (["compare"], 0),
    (["compare", "--backend", "fabric"], 0),
    (["sweep", "--stats"], 0),
    (["sweep", "--workers", "2"], 0),
    (["sweep", "--trace", "sweep.json"], 0),
    (["sweep", "--backend", "fabric"], 0),
    (["ablation"], 0),
    (["init"], 0),
    (["production"], 0),
    (["production", "--correlated", "--spares", "0"], 0),
    (["production", "--gpus", "256", "--correlated", "--weeks", "1", "--seed", "2",
      "--trace", "prod.json"], 0),
    (["schedule", "--compare"], 0),
    (["schedule", "--seed", "1", "--trace", "sched.json"], 0),
    (["mc"], 0),
    (["mc", "--scenario", "scheduler"], 0),
    (["mc", "--seeds", "16", "--weeks", "0.5", "--nodes", "128", "--workers", "2",
      "--cache-dir", "mc-cache", "--out", "mc.json"], 0),
    (["mc", "--seeds", "16", "--weeks", "0.5", "--nodes", "128",
      "--cache-dir", "mc-cache"], 0),
    (["trace", "prod.json"], 0),
    (["trace", "prod.json", "--lane", "training"], 0),
    (["validate"], 0),
    (["diagnose", "--scenario", "clean"], 0),
    (["diagnose", "--scenario", "straggler", "--out", "diag-straggler.json"], 0),
    (["diagnose", "--scenario", "tor-blast"], 0),
    (["diagnose", "--scenario", "ecmp-collision"], 0),
    (["diagnose", "--scenario", "preemption"], 0),
    (["diagnose", "--scenario", "data-stall"], 0),
    (["diagnose", "--trace", "prod.json", "--metrics", "prod.metrics.jsonl",
      "--out", "diag-prod.json"], 0),
    (["tune"], 0),
    (["tune", "--model", "gpt-13b", "--gpus", "16", "--batch", "64", "--exhaustive",
      "--trace", "tune.json"], 0),
    (["tune", "--model", "gpt-175b", "--gpus", "12288", "--batch", "6144", "--top", "3",
      "--backend", "fabric"], 0),
    (["tune", "--model", "gpt-13b", "--gpus", "64", "--batch", "128",
      "--cache-dir", "tune-cache"], 0),
    (["tune", "--model", "gpt-13b", "--gpus", "64", "--batch", "128",
      "--cache-dir", "tune-cache"], 0),
    (["calibrate", "--check", "--report", "calibration.json"], 0),
    (["calibrate", "--fit", "--max-evals", "5", "--profile", "profile.json",
      "--save-profile"], 0),
    # A baseline that lacks the report's last anchor: the drift gate fails.
    (["calibrate", "--check", "--baseline", "short-baseline.json"], 1),
    # A flag value argparse rejects: one ``repro: error:`` line, status 2.
    (["tune", "--tp", "0"], 2),
    # The search runs in one process: ``tune`` has no worker flag.
    (["tune", "--workers", "2"], 2),
    # A spare pool without --correlated, which alone has a finite one.
    (["production", "--spares", "0"], 2),
]
