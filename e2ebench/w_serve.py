"""``serve_mixed``: ``repro serve`` in a child process under an open loop.

The load comes from this process: one thread submits on a fixed schedule
(open loop: a job is sent when it is due, whatever the server is doing) and
one thread samples the queue depth. The job mix is drawn from the seed:

- ``run`` jobs (n=6, T=200), traced by the server's telemetry;
- ``sweep`` jobs drawn from a small spec set, so repeats are served from
  the cross-tenant cell cache;
- fresh-seed ``sweep`` jobs with ``telemetry: true``.

There is no recorded traffic to copy, so the mix is a sampling rule, not a
traffic model: ``run`` and ``sweep`` jobs come in equal numbers, so that
both kinds' percentiles rest on equal sample counts, and the sweep jobs
split evenly between repeats (cache reads) and fresh seeds (cache writes).
The share of sweep cells served from the cache is measured and reported.

Phases: a fixed offered rate (latency percentiles measured from when each
job was due to its ``finished_at``), a burst above capacity (throughput),
and a rising ladder of rates (the highest rate with p95 <= 1 s and no
growing backlog).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (BENCH_DIR, REPO_ROOT, check, child_env, median, now, percentile,
                    samples_beyond)

JOB_SLOTS, POOL_WORKERS = 2, 2
#: About half the capacity (the burst's achieved rate, ~6 jobs/s) measured
#: on the parent commit with this mix. The fixed phase lasts ``--seconds``.
FIXED_RATE = 3.0
LADDER = (3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0)
LADDER_STEP_S = 2.0
LATENCY_LIMIT_S = 1.0
#: One shuffled deck of job kinds per 4 submissions: the mix's proportions
#: are fixed, its order comes from the seed.
DECK = ("run", "run", "sweep_repeat", "sweep_fresh")
#: One repeat spec per attack of the repeat family (zero, sign-flip).
REPEAT_SPECS = 2
#: The server's admission limits (``ServiceConfig`` defaults).
MAX_QUEUE, PER_CLIENT = 64, 8
#: The burst measures capacity: whole decks, as many as the queue admits,
#: offered at several times the capacity so the queue fills at once and
#: the achieved rate is the drain rate.
BURST_JOBS = len(DECK) * (MAX_QUEUE // len(DECK) - 1)
BURST_RATE = 40.0
#: Twice the fewest tenants for which the per-client cap cannot bind even
#: if the whole burst is waiting at once.
TENANTS = 2 * -(-BURST_JOBS // PER_CLIENT)
SETUP_REPEATS = 3
SAMPLED_RESULTS = 2
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0


class JobMix:
    """Seeded generator of job submissions.

    Kinds come from shuffled decks of fixed proportions, and each kind
    cycles through its variants, so the work in a deck does not depend on
    the seed; the seed sets the order and every job's own seeds.
    """

    RUN_VARIANTS = (("cge", "gradient-reverse"), ("cwtm", "gradient-reverse"),
                    ("cge", "sign-flip"), ("cwtm", "sign-flip"))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.repeat_seeds = [self.rng.randrange(2**31) for _ in range(REPEAT_SPECS)]
        self.count = 0
        self.deck: List[str] = []
        self.issued = {"run": 0, "sweep_repeat": 0, "sweep_fresh": 0}

    def next(self) -> Dict:
        self.count += 1
        if not self.deck:
            self.deck = list(DECK)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        index = self.issued[kind]
        self.issued[kind] += 1
        if kind == "run":
            filter_name, attack = self.RUN_VARIANTS[index % len(self.RUN_VARIANTS)]
            params = {"n": 6, "iterations": 200, "f": 1, "filter": filter_name,
                      "attack": attack, "seed": self.rng.randrange(2**31)}
        elif kind == "sweep_repeat":
            spec = index % REPEAT_SPECS
            params = {"filters": ["cge"], "attacks": [["zero", "sign-flip"][spec % 2]],
                      "num_seeds": 2, "n": 6, "iterations": 200,
                      "master_seed": self.repeat_seeds[spec]}
        else:
            params = {"filters": ["cge", "cwtm"], "attacks": ["gradient-reverse"],
                      "num_seeds": 2, "n": 6, "iterations": 200,
                      "master_seed": self.rng.randrange(2**31), "telemetry": True}
        return {"kind": "run" if kind == "run" else "sweep", "params": params,
                "client": f"tenant-{self.count % TENANTS}"}


class Server:
    """One ``repro serve`` child process on a unix socket."""

    def __init__(self, state_dir: str, traced: bool, trace_dir: Optional[str] = None):
        from repro.service.client import ServiceClient

        os.makedirs(state_dir)
        self.state_dir = state_dir
        socket_path = os.path.relpath(os.path.join(state_dir, "repro.sock"), REPO_ROOT)
        program = ([os.path.join(BENCH_DIR, "served.py")] if traced
                   else ["-m", "repro"])
        env = child_env(**({"E2EBENCH_TRACE_DIR": trace_dir} if trace_dir else {}))
        started = now()
        self.process = subprocess.Popen(
            [sys.executable, *program, "serve", "--state-dir", state_dir,
             "--socket", socket_path, "--job-slots", str(JOB_SLOTS),
             "--pool-workers", str(POOL_WORKERS)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        # Relative to the checkout root, the working directory of both
        # processes: an absolute path could exceed the unix socket limit.
        self.client = ServiceClient(socket_path=socket_path, timeout=30.0)
        while True:
            try:
                self.client.healthz()
                break
            except Exception:
                if self.process.poll() is not None or now() - started > START_TIMEOUT_S:
                    self.stop()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.005)
        self.ready_s = now() - started

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=30)
            except Exception:
                self.process.kill()
                self.process.wait()


class DepthSampler:
    """Second load thread: samples the server's queue depth."""

    def __init__(self, server: Server, interval: float = 0.1):
        from repro.service.client import ServiceClient

        self.client = ServiceClient(socket_path=server.client.socket_path, timeout=30.0)
        self.interval = interval
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                depth = self.client.stats()["queue"]["depth"]
            except Exception:
                continue
            self.samples.append((now(), depth))

    def depth_at(self, t: float) -> int:
        before = [d for ts, d in self.samples if ts <= t]
        return before[-1] if before else 0

    def __enter__(self) -> "DepthSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def open_loop(server: Server, mix: JobMix, rate: float, count: int) -> Dict:
    """Submit ``count`` jobs at ``rate`` jobs/s on a fixed schedule."""
    from repro.exceptions import AdmissionRejectedError

    t0, wall0 = now(), time.time()
    submitted, late, submit_s, rejected = [], [], [], 0
    for k in range(count):
        due = t0 + k / rate
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        job = mix.next()
        start = now()
        late.append(max(0.0, start - due))
        try:
            record = server.client.submit(job["kind"], job["params"], client=job["client"])
        except AdmissionRejectedError:
            rejected += 1
            continue
        submit_s.append(now() - start)
        submitted.append({"job_id": record["job_id"], "kind": job["kind"],
                          "params": job["params"], "due_wall": wall0 + (due - t0)})
    return {"jobs": submitted, "rejected": rejected, "lateness": late,
            "submit_s": submit_s, "t0": t0, "end": t0 + count / rate,
            "offered_rate": rate, "count": count}


def drain(server: Server, phase: Dict) -> None:
    """Wait until every job of ``phase`` is terminal; attach its record."""
    wanted = {job["job_id"]: job for job in phase["jobs"]}
    deadline = now() + DRAIN_TIMEOUT_S
    while True:
        records = {r["job_id"]: r for r in server.client.jobs() if r["job_id"] in wanted}
        if all(r["state"] in ("done", "failed", "cancelled") for r in records.values()) \
                and len(records) == len(wanted):
            break
        check(now() < deadline, "jobs did not finish within the drain timeout")
        time.sleep(0.1)
    for job_id, job in wanted.items():
        record = records[job_id]
        job["state"] = record["state"]
        job["latency"] = record["finished_at"] - job["due_wall"]
        job["queue_wait"] = record["started_at"] - record["submitted_at"]
        job["exec"] = record["finished_at"] - record["started_at"]
    if phase["jobs"]:
        first_due = min(job["due_wall"] for job in phase["jobs"])
        last = max(job["due_wall"] + job["latency"] for job in phase["jobs"])
        phase["achieved_rate"] = len(phase["jobs"]) / (last - first_due)


def _recompute_run(params: Dict) -> List[float]:
    from repro.attacks.registry import make_attack
    from repro.problems.linear_regression import make_redundant_regression
    from repro.system.runner import run_dgd

    n, f = params["n"], params["f"]
    # d=2 and noise_std=0.02 are the service's defaults for run jobs.
    instance = make_redundant_regression(n=n, d=2, f=f, noise_std=0.02, seed=params["seed"])
    trace = run_dgd(instance.costs, make_attack(params["attack"]),
                    gradient_filter=params["filter"], faulty_ids=tuple(range(f)),
                    iterations=params["iterations"], seed=params["seed"])
    return trace.final_estimate.tolist()


def _recompute_sweep(params: Dict) -> List[List[float]]:
    from repro.experiments.sweep import SweepEngine
    from repro.service.jobs import grid_from_params

    cells = SweepEngine(parallel=False).run_regression_grid(grid_from_params(params))
    return [cell.final_estimate.tolist() for cell in cells]


def check_results(server: Server, jobs: List[Dict], rng: random.Random) -> None:
    not_done = [job for job in jobs if job["state"] != "done"]
    check(not not_done, f"{len(not_done)} jobs not done: "
          f"{sorted(set(job['state'] for job in not_done))}")
    for kind in ("run", "sweep"):
        of_kind = [job for job in jobs if job["kind"] == kind]
        for job in rng.sample(of_kind, min(SAMPLED_RESULTS, len(of_kind))):
            result = server.client.result(job["job_id"])
            if kind == "run":
                same = result["final_estimate"] == _recompute_run(job["params"])
            else:
                same = [c["final_estimate"] for c in result["cells"]] == \
                    _recompute_sweep(job["params"])
            check(same, f"{kind} job {job['job_id']}: result differs from recomputation")


def _latencies(jobs: List[Dict], kind: Optional[str] = None) -> List[float]:
    return [job["latency"] for job in jobs if kind is None or job["kind"] == kind]


def _jsonl_bytes(state_dir: str) -> int:
    total = 0
    for root, _, files in os.walk(state_dir):
        total += sum(os.path.getsize(os.path.join(root, n)) for n in files
                     if n.endswith(".jsonl"))
    return total


def _warm_up(server: Server) -> None:
    """One job of each kind outside the mix, so lazy imports are paid."""
    for kind, params in (("run", {"n": 6, "iterations": 20, "seed": 1}),
                         ("sweep", {"filters": ["median"], "attacks": ["zero"],
                                    "num_seeds": 2, "n": 6, "iterations": 20})):
        record = server.client.submit(kind, params, client="warm-up")
        server.client.wait(record["job_id"], poll=0.02)


def fixed_phase(server: Server, mix: JobMix, seconds: float) -> Dict:
    before = server.client.stats()["cache"]
    with DepthSampler(server) as depth:
        decks = max(1, round(FIXED_RATE * seconds / len(DECK)))
        phase = open_loop(server, mix, FIXED_RATE, decks * len(DECK))
        drain(server, phase)
    phase["depth_max"] = max((d for _, d in depth.samples), default=0)
    after = server.client.stats()["cache"]
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    phase["cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    return phase


def ladder_phase(server: Server, mix: JobMix) -> Dict:
    steps, sustained = [], 0.0
    with DepthSampler(server) as depth:
        for rate in LADDER:
            step = open_loop(server, mix, rate, int(rate * LADDER_STEP_S))
            mid_depth = depth.depth_at(step["t0"] + LADDER_STEP_S / 2)
            end_depth = depth.depth_at(step["end"])
            drain(server, step)
            p95 = percentile(_latencies(step["jobs"]), 95)
            ok = (not step["rejected"] and p95 <= LATENCY_LIMIT_S
                  and end_depth <= mid_depth + 1)
            steps.append({"rate": rate, "p95_s": p95, "depth_mid": mid_depth,
                          "depth_end": end_depth, "ok": ok, "jobs": step["jobs"],
                          "rejected": step["rejected"],
                          "lateness_max": max(step["lateness"])})
            if not ok:
                break
            sustained = rate
    return {"steps": steps, "sustained": sustained}


def burst_phase(server: Server, mix: JobMix) -> Dict:
    phase = open_loop(server, mix, BURST_RATE, BURST_JOBS)
    drain(server, phase)
    return phase


def _service_metrics(phase: Dict) -> Dict[str, float]:
    jobs = phase["jobs"]
    waits = [job["queue_wait"] for job in jobs]
    execs = [job["exec"] for job in jobs]
    return {
        "service.submit_s": median(phase["submit_s"]),
        "service.queue_wait_p50_s": percentile(waits, 50),
        "service.queue_wait_p95_s": percentile(waits, 95),
        "service.exec_p50_s": percentile(execs, 50),
        "service.exec_p95_s": percentile(execs, 95),
        "service.admission_rejected": float(phase["rejected"]),
        "service.queue_depth_max": float(phase["depth_max"]),
        "service.jobs_done": float(sum(job["state"] == "done" for job in jobs)),
    }


def _setups(work: str) -> List[float]:
    times = []
    for k in range(SETUP_REPEATS - 1):
        server = Server(os.path.join(work, f"setup-{k}"), traced=False)
        times.append(server.ready_s)
        server.stop()
    return times


def run(seed: int, seconds: float, work: str, trace: bool) -> Dict:
    rng = random.Random(seed)
    setups = _setups(work)
    if trace:
        return _run_traced(seed, seconds, work, setups, rng)
    server = Server(os.path.join(work, "state"), traced=False)
    try:
        setups.append(server.ready_s)
        _warm_up(server)
        mix = JobMix(seed)
        fixed = fixed_phase(server, mix, seconds)
        burst = burst_phase(server, mix)
        ladder = ladder_phase(server, mix)
        jobs = fixed["jobs"] + burst["jobs"] + [j for s in ladder["steps"] for j in s["jobs"]]
        check_results(server, jobs, rng)
    finally:
        server.stop()
    rejected = fixed["rejected"] + burst["rejected"] + sum(s["rejected"] for s in ladder["steps"])
    report = {}
    for kind in ("run", "sweep"):
        lat = _latencies(fixed["jobs"], kind)
        report[f"{kind}_job_p50_s"] = (percentile(lat, 50), f"s (n={len(lat)})")
        report[f"{kind}_job_p95_s"] = (
            percentile(lat, 95),
            f"s (n={len(lat)}, {samples_beyond(len(lat), 95)} beyond; 10 needed)")
    report["sustained_jobs_per_s"] = (ladder["sustained"], "1/s")
    report["fixed_offered_per_s"] = (FIXED_RATE, "1/s")
    report["fixed_achieved_per_s"] = (fixed["achieved_rate"], "1/s")
    report["fixed_lateness_max_s"] = (max(fixed["lateness"]), "s")
    report["fixed_queue_depth_max"] = (fixed["depth_max"], "count")
    report["fixed_sweep_cache_hit_share"] = (fixed["cache_hit_share"], "of sweep cells")
    report["burst_offered_per_s"] = (BURST_RATE, "1/s")
    report["burst_achieved_per_s"] = (burst["achieved_rate"], "1/s")
    for step in ladder["steps"]:
        report[f"ladder_{step['rate']:g}_per_s"] = (
            f"p95 {step['p95_s']:.3f} s, depth mid/end {step['depth_mid']}/"
            f"{step['depth_end']}, lateness max {step['lateness_max']:.4f} s, "
            f"{'ok' if step['ok'] else 'over'}", "")
    states: Dict[str, int] = {}
    for job in jobs:
        states[job["state"]] = states.get(job["state"], 0) + 1
    return {
        "setup_s": median(setups),
        "throughput_per_s": burst["achieved_rate"],
        "latency_p50_s": percentile(_latencies(fixed["jobs"], "run"), 50),
        "attempted": len(jobs) + rejected, "failed": rejected,
        "report": report,
        "counts": {f"jobs_{state}": n for state, n in sorted(states.items())},
        "per_layer": {},
    }


def _run_traced(seed: int, seconds: float, work: str, setups: List[float],
                rng: random.Random) -> Dict:
    """The fixed-rate phase untraced, then again on a traced server."""
    import layers

    phases = []
    for traced in (False, True):
        trace_dir = os.path.join(work, "spans") if traced else None
        if traced:
            os.makedirs(trace_dir)
        server = Server(os.path.join(work, f"state-{int(traced)}"), traced, trace_dir)
        try:
            if not traced:
                setups.append(server.ready_s)
            _warm_up(server)
            phase = fixed_phase(server, JobMix(seed), seconds)
            check_results(server, phase["jobs"], rng)
            phase["jsonl_bytes"] = _jsonl_bytes(server.state_dir)
        finally:
            server.stop()
        phases.append(phase)
    base, traced = phases
    busy = sum(job["exec"] for job in traced["jobs"])
    per_layer = layers.layer_metrics(layers.collect(os.path.join(work, "spans")), busy)
    per_layer.update(_service_metrics(traced))
    per_layer["observability.jsonl_bytes"] = float(traced["jsonl_bytes"])
    per_layer["trace.overhead_s"] = busy - sum(job["exec"] for job in base["jobs"])
    jobs = base["jobs"] + traced["jobs"]
    return {
        "setup_s": median(setups),
        "throughput_per_s": traced["achieved_rate"],
        "latency_p50_s": percentile(_latencies(traced["jobs"], "run"), 50),
        "attempted": len(jobs), "failed": base["rejected"] + traced["rejected"],
        "report": {"traced_exec_s": (busy, "s")},
        "counts": {"jobs_done": sum(job["state"] == "done" for job in jobs)},
        "per_layer": per_layer,
    }
