"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/rep.py --trace 0|1 --config CONFIG [CONFIG ...]
    python3 bench/rep.py --summarize CONFIG [CONFIG ...]

The first form times set-up (import gamc, load and validate the first
config, simulate and read the dataset, build the target), then
``gamc run CONFIG`` for each config in turn through the CLI entry point,
in this one process; ``run_s`` is their total.  With ``--trace 1`` the
calls into gamc's modules are traced (see tracing.py), one traced
``gamc summarize`` per run directory follows, the per-layer profile is
added, and the spans are written to spans.npz next to the first CONFIG.
After the timed work it reads the run directories back (trace hashes,
posterior moments, acceptance).

The second form times the same set-up once more, then SUMMARIZE_CALLS
rounds of ``gamc summarize`` over the configs' finished run directories
(one call per directory, timed together), and checks that each call
reproduces the summary.csv that ``gamc run`` wrote.  Each call writes a new
summary.csv, as ``gamc run`` does, rather than overwriting one (see
_summarize).  Set-up takes a fraction of a second, so run.py takes its
median over every process of a run.

Either form prints one JSON object as the last line of stdout.  Judging the
figures is left to run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

SAMPLERS = ("mala", "am", "smmala", "gamc")
SUMMARIZE_CALLS = 3


def _setup(config_path: str) -> dict:
    # the dataset goes to a new directory of this process's own, so that
    # every set-up writes new files (see _summarize) and none touches a run
    scratch = Path(config_path).parent / f"setup-{os.getpid()}"
    t0 = time.perf_counter()
    import gamc.cli  # noqa: F401 - the import is what is timed
    from gamc import harness, targets

    t1 = time.perf_counter()
    cfg = harness.load_config(config_path, output_override=str(scratch))
    t2 = time.perf_counter()
    dataset = None
    if cfg.target["kind"] == "rv":
        files = harness.simulate_datasets(cfg)
        dataset = targets.RVDataset.read_csv(scratch / files["dataset"])
    harness.build_target(cfg, dataset)
    t3 = time.perf_counter()
    shutil.rmtree(scratch, ignore_errors=True)
    return {"import_s": t1 - t0, "load_config_s": t2 - t1, "setup_s": t3 - t0}


def _summarize(cli, directories: list, calls: int) -> tuple[list, bool]:
    """Re-run ``gamc summarize`` on each directory ``calls`` times; returns
    the time of each round and True if every call reproduced summary.csv."""
    references = {d: (d / "summary.csv").read_bytes() for d in directories}
    times, identical = [], True
    with contextlib.redirect_stdout(sys.stderr):
        for _ in range(calls):
            elapsed = 0.0
            for directory, reference in references.items():
                path = directory / "summary.csv"
                # each call writes a new summary.csv: truncating one whose
                # blocks are on disk waits for the disk (50-70 ms under
                # online discard, swinging 2x between calls), which is not
                # gamc's work; so this times the call as `gamc run` makes
                # it, not a re-summarize that overwrites the file
                path.unlink()
                t0 = time.perf_counter()
                rc = cli.main(["summarize", str(directory)])
                elapsed += time.perf_counter() - t0
                identical = identical and rc == 0 and path.read_bytes() == reference
            times.append(elapsed)
    return times, identical


def _chain_facts(directory: Path, manifest: dict) -> list[dict]:
    import numpy as np

    from gamc.diagnostics import mcse_mean

    burn_in = manifest["config"]["burn_in"]
    steps = burn_in + manifest["config"]["iterations"]
    ess = {}
    with open(directory / "summary.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            ess[(row["sampler"], int(row["chain"]))] = float(row["ess_min"])
    out = []
    for meta in manifest["chains"]:
        fact = {"sampler": meta["sampler"], "chain": meta["chain"],
                "failed": meta["failed"], "steps": steps}
        if meta["failed"]:
            fact["error"] = meta["error"]
            out.append(fact)
            continue
        raw = (directory / meta["trace"]).read_bytes()
        trace = np.loadtxt(directory / meta["trace"], delimiter=",", skiprows=1, ndmin=2)
        dim = trace.shape[1] - 4
        post = trace[burn_in:, 1 : dim + 1]
        mcse = []
        for j in range(dim):
            try:
                mcse.append(mcse_mean(post[:, j]))
            except ValueError:  # constant coordinate: the chain never moved
                mcse.append(float("nan"))
        fact.update(
            trace_sha256=hashlib.sha256(raw).hexdigest(),
            geometric_steps=int(trace[:, dim + 3].sum()),
            wall_time=meta["wall_time"],
            accept_rate=float(trace[burn_in:, dim + 2].mean()),
            mean=post.mean(axis=0).tolist(),
            mcse=mcse,
            ess_min=ess.get((meta["sampler"], meta["chain"])),
            post_steps=int(post.shape[0]),
        )
        out.append(fact)
    return out


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {})
        return {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")
                if k in deps}

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GAMC_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def _layers(profile, chains: list[dict]) -> dict:
    """The per-layer figures of one traced repetition."""
    def steps(samplers, key="steps"):
        return sum(c[key] for c in chains if not c["failed"] and c["sampler"] in samplers)

    out = {}
    for o in (0, 1, 2):
        out[f"targets.bundle.calls.o{o}"] = profile.calls(f"targets.bundle.o{o}")
    for o in (1, 2):
        out[f"targets.bundle.self_s.o{o}"] = profile.self_s(f"targets.bundle.o{o}")
    for name in ("autodiff.value_and_gradient", "autodiff.value_gradient_hessian",
                 "linalg.softabs_metric", "linalg.cholesky", "linalg.invert_spd",
                 "linalg.rank_one_update", "kernels.am_update", "kernels.am_proposal_logpdf",
                 "kernels.metric_proposal"):
        out[f"{name}.calls"] = profile.calls(name)
        out[f"{name}.self_s"] = profile.self_s(name)
    out["linalg.solves.self_s"] = profile.self_s("linalg.solves")
    metric_samplers = ("smmala", "gamc")
    factorizations = profile.calls_in_samplers(
        ("linalg.softabs_metric", "linalg.cholesky", "linalg.invert_spd"), metric_samplers,
        exclude_parent="kernels.am_update")
    geo = steps(metric_samplers, "geometric_steps")
    out["linalg.factorizations_per_geometric_step"] = factorizations / geo if geo else 0.0
    out["kernels.am_update.refactor_fallbacks"] = profile.calls_under(
        "linalg.cholesky", "kernels.am_update")
    for name in ("kernels.am_proposal_sample", "kernels.gaussian_logpdf", "sampler.run_chain",
                 "diagnostics.summarize", "diagnostics.trace_rows", "diagnostics.acf_table",
                 "diagnostics.running_mean_table", "harness.run_experiment",
                 "harness.summarize_directory"):
        out[f"{name}.self_s"] = profile.self_s(name)
    out["diagnostics.autocovariance.calls"] = profile.calls("diagnostics.autocovariance")
    out["sampler.steps"] = steps(SAMPLERS)
    out["sampler.geometric_steps"] = steps(("gamc",), "geometric_steps")
    return out


def _self_time_by_layer(profile) -> dict:
    shares = {}
    for i, name in enumerate(profile.names):
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + float(profile.self_by_code[i])
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--config", nargs="+", help="run these experiment configs in turn")
    mode.add_argument("--summarize", nargs="+", metavar="CONFIG",
                      help="set up, then summarize the finished runs of these configs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.summarize:
        setup = _setup(args.summarize[0])
        from gamc import cli, harness

        directories = [Path(harness.load_config(c).output_dir) for c in args.summarize]
        times, identical = _summarize(cli, directories, SUMMARIZE_CALLS)
        print(json.dumps({"setup_s": setup["setup_s"], "times": times,
                          "summary_identical": identical}))
        return 0

    setup = _setup(args.config[0])
    import gamc
    from gamc import cli, harness

    source = Path.cwd() / "src" / "gamc"
    if Path(gamc.__file__).resolve().parent != source.resolve():
        print(f"gamc imported from {gamc.__file__}, not from {source}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Profile, Tracer

        tracer = Tracer()
        tracer.install()

    directories = [Path(harness.load_config(c).output_dir) for c in args.config]
    # the CLI's own report goes to stderr; stdout carries the result line
    rc, run_s = 0, 0.0
    with contextlib.redirect_stdout(sys.stderr):
        for config in args.config:
            t0 = time.perf_counter()
            rc = cli.main(["run", config]) or rc
            run_s += time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    manifests = [d / "manifest.json" for d in directories]
    ok = rc == 0 and all(m.exists() for m in manifests)
    # untraced, run.py times summarize in fresh processes; traced, one call
    # per directory here gives the per-layer figures of the read path
    identical = _summarize(cli, directories, 1)[1] if tracer is not None and ok else True

    result = {
        "rc": rc,
        "run_s": run_s,
        "summary_identical": identical,
        "peak_rss_mb": peak_rss_mb,
        **{k: setup[k] for k in ("import_s", "load_config_s", "setup_s")},
        "chains": [],
        "files_written": 0,
        "bytes_written": 0,
    }
    for directory, manifest_path in zip(directories, manifests) if ok else ():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        result["chains"] += _chain_facts(directory, manifest)
        written = [directory / rel for rel in manifest["outputs"]] + [manifest_path]
        result["files_written"] += len(written)
        result["bytes_written"] += sum(p.stat().st_size for p in written)
    if tracer is not None:
        profile = Profile(tracer)
        result["layers"] = _layers(profile, result["chains"])
        result["layers"]["targets.bundle.out_of_support"] = tracer.out_of_support
        result["self_s_by_layer"] = _self_time_by_layer(profile)
        result["span_calls"] = {n: profile.calls(n) for n in profile.names}
        result["spans_outside_chains"] = {
            p: profile.calls_outside_chains(p) for p in ("targets.", "autodiff.", "kernels.")}
        tracer.save(Path(args.config[0]).with_name("spans.npz"))
    result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
