"""msdsim benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload paper_check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Every sample is a fresh child process (``child.py``) with one BLAS/OpenMP
thread, run one after another: a closed loop with one client that pays the
import and cold caches on every call, as a CLI user does.  A speed probe
(``speed.py``) runs before and after every child and, with the child
stopped, every half second while it runs; the child's times are rescaled to
the reference speed of the host.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from the spans recorded around
msdsim's public functions.  The exit status is 1
when any correctness check fails and 2 when the checkout has no msdsim
source to run.
"""
from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench-out"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # no new sample starts once a run could pass this
SETUP_PROBES = 5  # extra set-up-only children per run, for setup_s
SPAN_SAMPLES = 100  # simulate_factory spans wanted for a p90
PROBE_EVERY_S = 0.5  # a running child is paused this often for a probe


class ChildFailed(Exception):
    """A child exited non-zero, printed no result, or ran out of time."""


def spawn(args: list[str], timeout: float, qubits: int) -> dict:
    """Run one child; return its JSON result with setup_s and probes added.

    Every PROBE_EVERY_S the child is stopped (SIGSTOP) while a speed probe
    at ``qubits`` runs on its CPU, and then continued, so that the probes
    see the host as the child saw it.  The child's times are net of these
    pauses.
    """
    env = {**os.environ, **THREADS}
    OUT.mkdir(exist_ok=True)
    pauses: list[tuple[float, float]] = []
    probes: list[float] = []
    with open(OUT / "child.out", "w+") as out, \
            open(OUT / "child.err", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            while True:
                try:
                    proc.wait(timeout=PROBE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if time.monotonic() - start > max(timeout, 1.0):
                    raise ChildFailed(f"{args}: timed out after "
                                      f"{timeout:.0f} s")
                proc.send_signal(signal.SIGSTOP)
                begin = time.monotonic()
                probes.append(speed.probe(qubits))
                pauses.append((begin, time.monotonic()))
                proc.send_signal(signal.SIGCONT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"{args}: exit status {proc.returncode}\n{stderr}")
    unpaused = unpause(pauses)
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = unpaused(result["setup_done"]) - unpaused(start)
    if "timed" in result:
        begin, end = map(unpaused, result["timed"])
        result["wall_s"] = end - begin
    if "spans" in result:
        result["spans"] = [(sid, parent, name, unpaused(a), unpaused(b), size)
                           for sid, parent, name, a, b, size
                           in result["spans"]]
    result["probes"] = probes
    return result


def unpause(pauses: list[tuple[float, float]]):
    """The clock that stands still while the child is stopped: a monotonic
    time minus the pauses (begin, end) before it."""
    begins = [b for b, _ in pauses]
    total = [0.0, *itertools.accumulate(e - b for b, e in pauses)]

    def unpaused(t: float) -> float:
        i = bisect.bisect_left(begins, t)
        before = total[i]
        if i and t < pauses[i - 1][1]:
            before -= pauses[i - 1][1] - t
        return t - before

    return unpaused


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), within the data's range."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    """The samples of one run of one workload, taken until time is up."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.monotonic()
        self.qubits = workloads.PROBE_QUBITS[workload]
        self.probe_s = speed.probe(self.qubits)  # the latest speed probe
        self.setups: list[float] = []
        self.samples: list[dict] = []
        self.traced: list[dict] = []
        self.scales: list[float] = []  # of every child, as setups
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, *extra: str) -> dict | None:
        """One sample.  Each untraced sample takes the next input order of
        the run's seed, so that a run covers several orders; a traced
        sample repeats the order of the untraced one before it."""
        order = self.seed * 1000 + len(self.samples)
        args = ["--workload", self.workload, "--seed", str(order), *extra]
        return self.spawn(args, RUN_LIMIT_S - self.elapsed())

    def spawn(self, args: list[str], timeout: float) -> dict | None:
        """One child between two speed probes.

        ``scale`` rescales the child's times to the reference speed: the
        reference time of a probe over the mean of the probes around and
        during the child.
        """
        before = self.probe_s
        try:
            result = spawn(args, timeout, self.qubits)
        except ChildFailed as e:
            self.errors.append(str(e))
            return None
        self.probe_s = speed.probe(self.qubits)
        probes = [before, *result["probes"], self.probe_s]
        result["scale"] = (speed.REFERENCE_S[self.qubits] * len(probes)
                           / sum(probes))
        self.setups.append(result["setup_s"])
        self.scales.append(result["scale"])
        return result

    def time_left(self, per_round: float) -> bool:
        """Whether another round of per_round seconds fits in the run."""
        elapsed = self.elapsed()
        return (elapsed + per_round <= self.seconds
                and elapsed + 2 * per_round <= RUN_LIMIT_S)

    def measure(self) -> None:
        """Untraced samples until --seconds is spent (at least one)."""
        for _ in range(SETUP_PROBES):
            if self.spawn(["--setup-only"], 60.0) is None:
                return
        rounds = []
        while True:
            start = time.monotonic()
            result = self.child()
            if result is None:
                return
            self.samples.append(result)
            rounds.append(time.monotonic() - start)
            if not self.time_left(median(rounds)):
                return

    def measure_traced(self) -> None:
        """Alternate untraced and traced samples (at least one pair).

        Continues past --seconds until SPAN_SAMPLES simulate_factory spans
        exist, so that their p90 has ten samples beyond it.
        """
        while True:
            start = time.monotonic()
            plain = self.child()
            traced = self.child("--trace") if plain else None
            if traced is None:
                return
            self.samples.append(plain)
            self.traced.append(traced)
            per_round = time.monotonic() - start
            spans = sum(s[2] == "factory.simulate_factory"
                        for t in self.traced for s in t["spans"])
            if not self.time_left(per_round) and (
                    spans >= SPAN_SAMPLES
                    or self.elapsed() + 2 * per_round > RUN_LIMIT_S):
                return

    # -- results ----------------------------------------------------------
    def counts(self) -> tuple[int, int]:
        """(attempted, failed) operations; a failed child fails them all."""
        done = self.samples + self.traced
        attempted = sum(s["attempted"] for s in done)
        failed = sum(s["failed"] for s in done)
        if self.errors or not done:
            ops = done[0]["attempted"] if done else 1
            attempted += ops
            failed += ops
        return attempted, failed

    def end_to_end(self) -> dict:
        """Name: (value, unit, the samples it summarizes).

        Times report the median of their samples, each rescaled to the
        reference speed of the host.  Peak memory is the largest over the
        samples, whose input orders differ.
        """
        walls = [s["wall_s"] * s["scale"] for s in self.samples]
        setups = [t * k for t, k in zip(self.setups, self.scales)]
        rss = [s["peak_rss_mb"] for s in self.samples]
        devs = [s["pout_max_rel_dev"] for s in self.samples
                if s["pout_max_rel_dev"] is not None]
        metrics = {
            "wall_s": (median(walls), "s", walls),
            "setup_s": (median(setups), "s", setups),
            "peak_rss_mb": (max(rss), "MB", rss),
        }
        if devs:
            metrics["pout_max_rel_dev"] = (max(devs), "ratio", devs)
        return metrics

    def per_layer(self) -> dict:
        """Name: (value, unit); counts and times are per traced sample."""
        n = len(self.traced)
        layers = tracing.summarize(
            [((k, sid), (k, parent), *rest)
             for k, t in enumerate(self.traced)
             for sid, parent, *rest in t["spans"]])

        def calls(name):
            return layers[name]["calls"] / n

        def self_s(name):
            return layers[name]["self_s"] / n

        def called_from(name, parent):
            return layers[name]["parents"][parent] / n

        m: dict[str, tuple[float, str]] = {}
        engine = ("density.apply_storage", "density.apply_faulty_rotation")
        for name in (*engine, "density.project_plus",
                     "density.infidelity_with_pure"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
            if name in engine:
                d = layers[name]["durations"]
                m[f"{name}.us_per_call"] = (median(d) * 1e6 if d else 0.0,
                                            "us")
        engine_calls = sum(calls(name) for name in engine)
        engine_bytes = sum(layers[name]["bytes"] / n for name in engine)
        m["density.bytes_per_call"] = (
            engine_bytes / engine_calls if engine_calls else 0.0,
            "bytes_computed")

        lookups = calls("factory.level1_output_error")
        missed = called_from("factory.level1", "factory.level1_output_error")
        m["factory.level1.sims"] = (calls("factory.level1"), "count")
        m["factory.level1_cache.lookups"] = (lookups, "count")
        m["factory.level1_cache.hit_ratio"] = (
            1.0 - missed / lookups if lookups else 0.0, "ratio")
        sf = [d * 1e3 for d in layers["factory.simulate_factory"]["durations"]]
        m["factory.simulate_factory.calls"] = (
            calls("factory.simulate_factory"), "count")
        m["factory.simulate_factory.p50_ms"] = (median(sf) if sf else 0.0,
                                                "ms")
        m["factory.simulate_factory.p90_ms"] = (
            quantiles(sf, n=10)[8] if len(sf) > 1 else
            sum(sf), "ms")
        m["factory.sweep.self_s"] = (self_s("factory.sweep"), "s")
        valid = sum(t["valid_candidates"] for t in self.traced) / n
        simulated = called_from("factory.simulate_factory", "factory.sweep")
        m["factory.sweep.simulated_ratio"] = (
            simulated / valid if valid else 0.0, "ratio")
        for name in ("factory.build_schedule", "factory.perturbative"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
        drifts = [t["pout_drift_max"] for t in self.traced
                  if t["pout_drift_max"] is not None]
        if drifts:
            m["factory.pout_drift_max"] = (max(drifts), "ratio")
        for fn in ("undetected_error_sets", "verify_gadget",
                   "compose_unitary", "simulate_circuit"):
            m[f"circuits.{fn}.self_s"] = (self_s(f"circuits.{fn}"), "s")
        m["circuits.catalog.calls"] = (calls("circuits.catalog"), "count")
        for name in ("pauli.parity_lookup", "noise.profile"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
        m["cli.check_row.self_s"] = (self_s("cli.check_row"), "s")
        m["cli.emit.self_s"] = (self_s("cli.emit"), "s")
        m["trace.overhead_ratio"] = (
            median([t["wall_s"] * t["scale"] for t in self.traced])
            / median([s["wall_s"] * s["scale"] for s in self.samples])
            - 1.0, "ratio")
        return m

    def write_trace(self) -> Path:
        """Write every span of the run, once the run has ended."""
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "fields": ["id", "parent", "name", "start", "end", "bytes"],
            "runs": [t["spans"] for t in self.traced]}))
        return path


def metadata(numpy_version: str) -> dict:
    """Facts about the machine and the code, recorded but never gated."""
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "threads": THREADS, "src_lines": src_lines}


def report(run: Run, trace: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    attempted, failed = run.counts()
    print(f"== {run.workload} seed {run.seed}: {len(run.samples)} samples"
          f"{f', {len(run.traced)} traced' if trace else ''}, "
          f"{run.elapsed():.1f} s")
    for error in run.errors:
        print(f"   error: {error.strip()}")
    print(f"   fail_ratio         {failed}/{attempted} = "
          f"{failed / attempted:.4g}")
    if run.scales:
        q1, q2, q3 = quartiles(run.scales)
        print(f"   speed scale        quartiles {q1:.4g} {q2:.4g} {q3:.4g} "
              f"(reference probe {speed.REFERENCE_S[run.qubits]} s at "
              f"{run.qubits} qubits)")
    metrics = {}
    if trace and run.traced:
        for name, (value, unit) in run.per_layer().items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"   {name:40s} {value:14.6g} {unit}")
    elif not trace and run.samples:
        for name, (value, unit, values) in run.end_to_end().items():
            metrics[name] = {"value": value, "unit": unit}
            if name == "pout_max_rel_dev":
                print(f"   {name:18s} {value:.6g} {unit}")
                continue
            q1, q2, q3 = quartiles(values)
            print(f"   {name:18s} {value:.6g} {unit}  of {len(values)} "
                  f"samples, quartiles {q1:.6g} {q2:.6g} {q3:.6g}")
    return {"correct": failed == 0 and not run.errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    # A SIGTERM unwinds like an exception, so that spawn kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "msdsim" / "__init__.py").is_file():
        print(f"error: no msdsim source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Every child runs on one CPU.  The CPUs of a shared machine can differ
    # in speed, and samples spread over both would mix the two speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        probe = spawn(["--setup-only"], 60.0, 7)
    except ChildFailed as e:
        print(f"error: msdsim does not import: {e}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(probe["numpy"])))

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(name, args.seed, args.seconds)
        if args.trace:
            run.measure_traced()
        else:
            run.measure()
        results[name] = report(run, bool(args.trace))
        if run.traced:
            print(f"   spans written to {run.write_trace()}")
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
