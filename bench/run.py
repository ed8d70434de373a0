"""Benchmark of gamc's sampler: `gamc run` then `gamc summarize`, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports gamc from ./src).  Each
repetition is one fresh interpreter (bench/rep.py) that sets up and runs
the workload's configs (one per sampler group) through the CLI entry
point, serially in one process, followed by SUMMARIZE_PROCS fresh
interpreters that each time set-up again and then `gamc summarize` on the
finished directories (rep.py SUMMARIZE_CALLS rounds each).  Repetitions go on while the next
is expected to end within --seconds (at least MIN_REPS), and every figure
is the median over them.
All repetitions of a run use the same seeded configs, so their traces must
agree bit for bit.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics from the traced
ones, plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; "failed" counts the
chains that raised, which the checks do not judge.  The exit code is 0 only
when every correctness check passed.  Run outputs go to .bench_out/.

BLAS thread variables are left as found; GAMC_THREADS is removed from the
repetitions' environment so the chains run serially.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SAMPLERS = ("mala", "am", "smmala", "gamc")
GAMC_SCHEDULE = {"family": "exponential", "r": 1e-3}

# Chain lengths and counts are sized so one repetition takes several
# seconds on a 2-core machine; the targets and samplers are those of
# configs/.  "groups" lists (samplers, chains per sampler, burn-in,
# iterations); each group is one `gamc run` on the same target.  On
# one_planet a chain's cost depends on its path and the Kepler crash ends
# some chains, so each sampler pools several; am, whose chains cost 1 % of
# the others', runs many in a group of its own (see bench/README.md).
# "truth" names the posterior check (see check_rep).
WORKLOADS = {
    "student_t": {
        "target": {"kind": "student_t", "n": 5, "nu": 30.0, "xi": 0.9},
        "groups": ((SAMPLERS, 1, 1_000, 10_000),), "truth": "mcse",
    },
    "one_planet": {
        "target": {"kind": "rv", "n_planets": 1},
        "c_additive": True,
        "groups": ((("mala", "smmala", "gamc"), 4, 150, 250), (("am",), 40, 200, 400)),
        "truth": "rv",
    },
    "student_t_50d": {
        "target": {"kind": "student_t", "n": 50, "nu": 30.0, "xi": 0.9},
        "groups": ((SAMPLERS, 1, 100, 150),), "truth": "sd",
    },
}

MIN_REPS = 2
# `gamc summarize` is timed in fresh processes, several per repetition, so
# that no single process sets the figure
SUMMARIZE_PROCS = 3
# no repetition starts after START_DEADLINE_S, and none outlives
# RUN_LIMIT_S: a run ends within 180 s even if a repetition hangs
START_DEADLINE_S = 100.0
RUN_LIMIT_S = 170.0

# Posterior checks against the known truth:
# "mcse": Student-t mean 0; per sampler, each coordinate's mean pooled over
#   chains lies within MCSE_MULTIPLE pooled MCSEs of 0.
# "sd": Student-t mean 0 for chains too short to converge; the mean of all
#   samplers' draws lies within SD_MULTIPLE marginal SDs of 0 (the target's
#   scale convention makes every marginal SD 1).  Catches divergence only.
# "rv": one planet.  The post-burn-in K1 and P1 means, each sampler's
#   median over its chains that did not fail, have a median over samplers
#   within a share of the simulated truth.
#   Chains of a few hundred steps do not converge, and on some datasets
#   every sampler agrees on a K1 or P1 off the truth by more than the
#   chains' own 3 SDs, so criterion 10's per-chain test (which allows 2
#   misses in 10 long chains) does not hold here; see bench/README.md.
MCSE_MULTIPLE = 5.0
SD_MULTIPLE = 3.0
# coordinate (x1 = K1, x2 = P1) -> (true value, allowed share of it)
RV_TRUTH = {1: (20.0, 0.25), 2: (50.0, 0.10)}
# Post-burn-in acceptance rates must lie in these wide bands: they catch a
# chain that never moves or a ratio that accepts everything.
ACCEPT_BANDS = {"mala": (0.1, 0.95), "am": (0.01, 0.6), "smmala": (0.05, 0.999),
                "gamc": (0.1, 0.999)}

# Which spans must fire on which workload (the span self-check).
SPANS_EVERYWHERE = (
    "targets.bundle.o0", "targets.bundle.o1", "targets.bundle.o2",
    "linalg.softabs_metric", "linalg.cholesky", "linalg.invert_spd",
    "linalg.rank_one_update", "linalg.solves",
    "kernels.am_update", "kernels.am_proposal_logpdf", "kernels.am_proposal_sample",
    "kernels.metric_proposal", "kernels.gaussian_logpdf", "sampler.run_chain",
    "diagnostics.summarize", "diagnostics.trace_rows", "diagnostics.acf_table",
    "diagnostics.running_mean_table", "diagnostics.autocovariance",
    "harness.run_experiment", "harness.summarize_directory",
)
AUTODIFF_SPANS = ("autodiff.value_and_gradient", "autodiff.value_gradient_hessian")
NEVER_FIRES = ("targets.bundle.o3",)
# the layers each workload was chosen for; together they must hold more
# traced self time than any other single layer
DOMINANT_LAYERS = {
    "student_t": ("linalg", "kernels"),
    "one_planet": ("autodiff", "targets"),
    "student_t_50d": ("linalg",),
}

END_TO_END_UNITS = {
    "run_s": "s",
    **{f"steps_per_s.{s}": "1/s" for s in SAMPLERS},
    "summarize_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    **{f"targets.bundle.calls.o{o}": "count" for o in (0, 1, 2)},
    "targets.bundle.self_s.o1": "s",
    "targets.bundle.self_s.o2": "s",
    "targets.bundle.out_of_support": "count",
    **{f"autodiff.{f}.{k}": u for f in ("value_and_gradient", "value_gradient_hessian")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    **{f"linalg.{f}.{k}": u for f in ("softabs_metric", "cholesky", "invert_spd",
                                      "rank_one_update")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "linalg.solves.self_s": "s",
    "linalg.factorizations_per_geometric_step": "ratio",
    "kernels.am_update.calls": "count",
    "kernels.am_update.self_s": "s",
    "kernels.am_update.refactor_fallbacks": "count",
    "kernels.am_proposal_logpdf.calls": "count",
    "kernels.am_proposal_logpdf.self_s": "s",
    "kernels.am_proposal_sample.self_s": "s",
    "kernels.metric_proposal.calls": "count",
    "kernels.metric_proposal.self_s": "s",
    "kernels.gaussian_logpdf.self_s": "s",
    "sampler.run_chain.self_s": "s",
    "sampler.steps": "count",
    "sampler.geometric_steps": "count",
    **{f"sampler.accept_rate.{s}": "ratio" for s in SAMPLERS},
    **{f"sampler.ess_per_step.{s}": "ratio" for s in SAMPLERS},
    **{f"sampler.min_ess_per_s.{s}": "1/s" for s in SAMPLERS},
    "diagnostics.summarize.self_s": "s",
    "diagnostics.trace_rows.self_s": "s",
    "diagnostics.acf_table.self_s": "s",
    "diagnostics.running_mean_table.self_s": "s",
    "diagnostics.autocovariance.calls": "count",
    "harness.run_experiment.self_s": "s",
    "harness.summarize_directory.self_s": "s",
    "harness.bytes_written": "bytes",
    "harness.files_written": "count",
    "harness.chains_failed": "count",
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "bench.run_s.untraced": "s",
    "bench.run_s.traced": "s",
    "bench.tracing_overhead": "ratio",
}


def make_configs(workload: str, seed: int, output_dir: Path) -> list:
    """The workload's experiment configs, one per sampler group; the seed is
    their only input, so every group samples the same target."""
    shape = WORKLOADS[workload]
    target = dict(shape["target"])
    if target["kind"] == "rv":
        target["simulate"] = {"seed": seed}
    return [{
        "target": target,
        "samplers": [{"name": s, **({"schedule": GAMC_SCHEDULE} if s == "gamc" else {})}
                     for s in samplers],
        "chains": chains,
        "iterations": iterations,
        "burn_in": burn_in,
        "base_seed": seed,
        "c_additive": shape.get("c_additive", False),
        "output_dir": str(output_dir / f"group{i}"),
    } for i, (samplers, chains, burn_in, iterations) in enumerate(shape["groups"])]


def rep_process(args: list, timeout: float) -> dict:
    """Run bench/rep.py with ``args`` and return its result line."""
    env = dict(os.environ)
    env.pop("GAMC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "rep.py"), *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_rep(config_paths: list, traced: bool, deadline: float) -> dict:
    args = ["--trace", "1" if traced else "0", "--config", *map(str, config_paths)]
    rep = rep_process(args, deadline - time.monotonic())
    rep["setup_samples"] = [rep["setup_s"]]
    if not traced and rep["rc"] == 0:
        times = []
        for _ in range(SUMMARIZE_PROCS):
            out = rep_process(["--summarize", *map(str, config_paths)], deadline - time.monotonic())
            times.append(median(out["times"]))
            rep["setup_samples"].append(out["setup_s"])
            rep["summary_identical"] = rep["summary_identical"] and out["summary_identical"]
        rep["summarize_s"] = times
    return rep


def median(values) -> float:
    return float(statistics.median(values))


def steps_per_s(rep: dict) -> dict:
    out = {}
    for s in SAMPLERS:
        chains = [c for c in rep["chains"] if c["sampler"] == s and not c["failed"]]
        wall = sum(c["wall_time"] for c in chains)
        out[s] = sum(c["steps"] for c in chains) / wall if wall > 0 else 0.0
    return out


class Checks:
    """Collects named correctness checks; any failure fails the run."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def require(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)


def check_rep(checks: Checks, workload: str, rep: dict, label: str) -> None:
    checks.require(rep["rc"] == 0, f"{label}: gamc run exited {rep['rc']}")
    checks.require(rep["summary_identical"],
                   f"{label}: gamc summarize did not reproduce summary.csv byte for byte")
    chains = rep["chains"]
    expected = sum(len(group[0]) * group[1] for group in WORKLOADS[workload]["groups"])
    checks.require(len(chains) == expected, f"{label}: {len(chains)} chains, expected {expected}")
    # a chain that raised is a failed operation: it is counted in `failed`
    # and listed, and the checks below judge the chains that finished
    ok = [c for c in chains if not c["failed"]]
    truth = WORKLOADS[workload]["truth"]
    for s in SAMPLERS:
        mine = [c for c in ok if c["sampler"] == s]
        checks.require(bool(mine), f"{label}: every {s} chain failed, so none can be measured")
        if not mine:
            continue
        rate = sum(c["accept_rate"] for c in mine) / len(mine)
        lo, hi = ACCEPT_BANDS[s]
        checks.require(lo <= rate <= hi, f"{label}: {s} acceptance {rate:.3f} outside [{lo}, {hi}]")
        if truth == "mcse":
            for j in range(len(mine[0]["mean"])):
                mean = sum(c["mean"][j] for c in mine) / len(mine)
                mcse = math.sqrt(sum(c["mcse"][j] ** 2 for c in mine)) / len(mine)
                checks.require(
                    abs(mean) <= MCSE_MULTIPLE * mcse,
                    f"{label}: {s} x{j} mean {mean:.4f} beyond {MCSE_MULTIPLE} MCSE ({mcse:.4f})")
    if truth == "rv" and ok:
        for j, (value, share) in RV_TRUTH.items():
            mean = median(median(c["mean"][j] for c in ok if c["sampler"] == s)
                          for s in SAMPLERS if any(c["sampler"] == s for c in ok))
            checks.require(abs(mean - value) <= share * value,
                           f"{label}: median x{j} mean {mean:.4f} not within {share:.0%} of {value}")
    if truth == "sd" and ok:
        for j in range(len(ok[0]["mean"])):
            mean = sum(c["mean"][j] for c in ok) / len(ok)  # equally long chains
            checks.require(abs(mean) <= SD_MULTIPLE,
                           f"{label}: x{j} mean {mean:.4f} beyond {SD_MULTIPLE} marginal SDs of 0")


def determinism(rep: dict) -> dict:
    return {
        "traces": {f"{c['sampler']}_{c['chain']:02d}": c.get("trace_sha256") for c in rep["chains"]},
        "gamc_geometric_steps": {f"gamc_{c['chain']:02d}": c.get("geometric_steps")
                                 for c in rep["chains"] if c["sampler"] == "gamc"},
    }


def check_spans(checks: Checks, workload: str, rep: dict, label: str) -> None:
    calls = rep["span_calls"]
    autodiff_expected = WORKLOADS[workload]["target"]["kind"] == "rv"
    for name in SPANS_EVERYWHERE + (AUTODIFF_SPANS if autodiff_expected else ()):
        checks.require(calls.get(name, 0) > 0, f"{label}: span {name} never fired")
    for name in NEVER_FIRES + (() if autodiff_expected else AUTODIFF_SPANS):
        checks.require(calls.get(name, 0) == 0,
                       f"{label}: span {name} fired {calls.get(name, 0)} times")
    for prefix, n in rep["spans_outside_chains"].items():
        checks.require(n == 0, f"{label}: {n} {prefix}* spans fired outside a chain")
    by_layer = rep["self_s_by_layer"]
    chosen = DOMINANT_LAYERS[workload]
    share = sum(by_layer.get(layer, 0.0) for layer in chosen)
    rival, rival_share = max(((k, v) for k, v in by_layer.items() if k not in chosen),
                             key=lambda kv: kv[1])
    checks.require(share > rival_share, f"{label}: {'+'.join(chosen)} self time {share:.3f} s "
                   f"is below {rival}'s {rival_share:.3f} s")


def sampler_metrics(untraced: list) -> dict:
    """Acceptance and ESS figures of the untraced repetitions, per sampler."""
    out = {}
    for s in SAMPLERS:
        accept, ess, post, wall = [], [], [], []
        for r in untraced:
            mine = [c for c in r["chains"] if c["sampler"] == s and not c["failed"]]
            if not mine:  # every chain failed; the run is already incorrect
                continue
            accept.append(sum(c["accept_rate"] for c in mine) / len(mine))
            ess.append(sum(c["ess_min"] for c in mine))
            post.append(sum(c["post_steps"] for c in mine))
            wall.append(sum(c["wall_time"] for c in mine))
        out[f"sampler.accept_rate.{s}"] = median(accept or [0.0])
        out[f"sampler.ess_per_step.{s}"] = median([e / p for e, p in zip(ess, post)] or [0.0])
        out[f"sampler.min_ess_per_s.{s}"] = median([e / w for e, w in zip(ess, wall)] or [0.0])
    return out


def layer_metrics(untraced: list, traced: list) -> dict:
    names = set(traced[0]["layers"])
    out = {name: median([r["layers"][name] for r in traced]) for name in names}
    out.update(sampler_metrics(untraced))
    out["harness.bytes_written"] = median(r["bytes_written"] for r in untraced)
    out["harness.files_written"] = median(r["files_written"] for r in untraced)
    out["harness.chains_failed"] = sum(
        sum(c["failed"] for c in r["chains"]) for r in untraced + traced)
    out["cli.import_s"] = median(r["import_s"] for r in untraced + traced)
    out["cli.load_config_s"] = median(r["load_config_s"] for r in untraced + traced)
    out["bench.run_s.untraced"] = median(r["run_s"] for r in untraced)
    out["bench.run_s.traced"] = median(r["run_s"] for r in traced)
    out["bench.tracing_overhead"] = out["bench.run_s.traced"] / out["bench.run_s.untraced"]
    return out


def end_to_end_metrics(reps: list) -> dict:
    rates = [steps_per_s(r) for r in reps]
    out = {"run_s": median(r["run_s"] for r in reps)}
    for s in SAMPLERS:
        out[f"steps_per_s.{s}"] = median(x[s] for x in rates)
    out["summarize_s"] = median(t for r in reps for t in r.get("summarize_s", [0.0]))
    out["setup_s"] = median(t for r in reps for t in r["setup_samples"])
    out["peak_rss_mb"] = median(r["peak_rss_mb"] for r in reps)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (Path.cwd() / "src" / "gamc" / "__init__.py").is_file():
        print("error: run from the root of a gamc checkout (no src/gamc here)", file=sys.stderr)
        return 2

    out_dir = Path.cwd() / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    run_root = out_dir / "run"
    config_paths = []
    for i, config in enumerate(make_configs(args.workload, args.seed, run_root)):
        config_paths.append(out_dir / f"config{i}.json")
        config_paths[-1].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    untraced, traced = [], []
    checks = Checks()
    start = time.monotonic()
    last = 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            n = len(untraced) + len(traced)
            if n >= MIN_REPS and (elapsed + last > args.seconds or elapsed > START_DEADLINE_S):
                break
            use_trace = bool(args.trace) and len(untraced) > len(traced)
            # a fresh run directory each time: rewriting existing CSVs makes
            # the file system flush them, which a first run does not pay
            shutil.rmtree(run_root, ignore_errors=True)
            t0 = time.monotonic()
            rep = run_rep(config_paths, use_trace, deadline=start + RUN_LIMIT_S)
            last = time.monotonic() - t0
            (traced if use_trace else untraced).append(rep)
            label = f"{'traced' if use_trace else 'untraced'} repetition {n + 1}"
            check_rep(checks, args.workload, rep, label)
            if use_trace:
                check_spans(checks, args.workload, rep, label)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    record = determinism(reps[0])
    for i, rep in enumerate(reps[1:], start=2):
        checks.require(determinism(rep) == record,
                       f"repetition {i}: trace hashes or geometric-step counts differ "
                       "from repetition 1")

    if args.trace:
        values, units = layer_metrics(untraced, traced), LAYER_UNITS
    else:
        values, units = end_to_end_metrics(untraced), END_TO_END_UNITS
    missing = set(units) - set(values)
    checks.require(not missing, f"metrics not measured: {sorted(missing)}")
    metrics = {k: (values[k], u) for k, u in units.items() if k in values}

    attempted = sum(len(r["chains"]) for r in reps) or 1
    failed_chains = [f"{c['sampler']} chain {c['chain']}: {c.get('error')}"
                     for c in reps[0]["chains"] if c["failed"]]
    failed = sum(sum(c["failed"] for c in r["chains"]) for r in reps)
    correct = not checks.failures

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "environment": reps[0]["environment"],
        "determinism": record,
        "checks": {"run": checks.count, "failed": checks.failures},
        "failed_chains": failed_chains,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repetition_values": [end_to_end_metrics([r]) for r in untraced],
        "samplers": sampler_metrics(untraced),
    }
    if args.trace:
        report["self_s_by_layer"] = traced[0]["self_s_by_layer"]
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced repetitions")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print("determinism " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:45s} {value:14.6g} {unit}")
    for chain in failed_chains:
        print(f"CHAIN FAILED (in every repetition): {chain}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"{checks.count - len(checks.failures)}/{checks.count} checks passed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
