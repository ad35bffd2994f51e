#!/usr/bin/env python3
"""Repository benchmark: open-loop UDP latency/capacity and a deterministic
city replay for the location service, with a traced per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot-leaf-update --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload city-mixed --seed 1 --trace 1
    python3 perfbench/run.py --workload commuter-replay --repeat 10 --seed 1

The first run builds the library and the benchmark binary (locbench) under
.bench_build/. `--trace 0` prints every end-to-end metric, `--trace 1` runs
the workload untraced and then traced and prints every per-layer metric.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--repeat N` is the stability harness: it runs seeds seed..seed+N-1 and
prints each metric's median and quartiles (see perfbench/README.md).
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
LOG_DIR = os.path.join(ROOT, ".bench_build", "logs")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "locbench")

WORKLOADS = ("hot-leaf-update", "city-mixed", "commuter-replay")
UDP_WORKLOADS = ("hot-leaf-update", "city-mixed")
EPISODES = 10


def load_metrics():
    """Metric names and units, as declared in the repository's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------


def build():
    os.makedirs(LOG_DIR, exist_ok=True)
    with open(os.path.join(LOG_DIR, "build.log"), "a") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            log("configuring the benchmark build")
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT, check=True, timeout=600)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "locbench", "-j", jobs],
                       stdout=out, stderr=subprocess.STDOUT, check=True, timeout=900)


# --- child processes ---------------------------------------------------------


class Child:
    """A locbench process driven by line commands."""

    def __init__(self, name, argv):
        os.makedirs(LOG_DIR, exist_ok=True)
        self.name = name
        self.err = open(os.path.join(LOG_DIR, f"{name}.log"), "w")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, cwd=ROOT)
        self.buf = b""

    def expect(self, prefix, timeout):
        deadline = time.monotonic() + timeout
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line = self.buf[:nl].decode()
                self.buf = self.buf[nl + 1:]
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
                raise BenchError(f"{self.name}: expected '{prefix}', got '{line[:200]}'")
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{self.name}: timed out waiting for '{prefix}'")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise BenchError(f"{self.name}: exited ({self.proc.poll()}) "
                                     f"while waiting for '{prefix}'")
                self.buf += chunk

    def command(self, cmd, prefix, timeout):
        self.proc.stdin.write((cmd + "\n").encode())
        self.proc.stdin.flush()
        return self.expect(prefix, timeout)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def common_args(workload, seed, seconds, traced):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0"]


def span_path(workload, seed):
    os.makedirs(SPAN_DIR, exist_ok=True)
    return os.path.join(SPAN_DIR, f"{workload}-seed{seed}.csv")


def run_udp(workload, seed, seconds, traced):
    """One server process + one generator process. Returns (gen, server)."""
    suffix = "traced" if traced else "plain"
    children = []
    try:
        server = Child(f"server-{workload}-{suffix}",
                       [BINARY, "server"] + common_args(workload, seed, seconds, traced) +
                       ["--spans", span_path(workload, seed)])
        children.append(server)
        port = server.expect("port", 30)
        gen = Child(f"gen-{workload}-{suffix}",
                    [BINARY, "gen"] + common_args(workload, seed, seconds, traced) +
                    ["--port", port])
        children.append(gen)
        gen.expect("gen ready", 60)
        # Each episode: a fresh deployment (timed set-up), then one share of
        # each fixed-rate phase, 0.2 s apart. The server's CPU time over the
        # nominal phase gives ops_per_cpu_s. The capacity search runs on the
        # last deployment.
        setups, per_cpu = [], []
        for episode in range(EPISODES):
            t0 = int(server.command("build", "ready", 30))
            t1 = int(gen.command("register", "registered", 40))
            setups.append((t1 - t0) / 1e9)
            if episode == 0:
                # Footprint of the deployment holding every object. Later
                # peaks follow the load's backlog, which follows the host.
                rss_mb = float(server.command("mark", "rss", 10))
            server.command("begin", "begun", 10)
            time.sleep(0.2)
            cpu0 = int(server.command("cpu", "cpu", 10))
            ops = int(gen.command(f"phase nominal {EPISODES}", "phase-done", seconds + 60))
            cpu_s = (int(server.command("cpu", "cpu", 10)) - cpu0) / 1e9
            per_cpu.append(ops / cpu_s)
            for phase in ("light", "probe"):
                time.sleep(0.2)
                gen.command(f"phase {phase} {EPISODES}", "phase-done", seconds + 60)
        result = json.loads(gen.command("search", "result", 2 * seconds + 60))
        stats = json.loads(server.command("end", "stats", 30))
        server.command("quit", "bye", 30)
        gen.command("quit", "bye", 30)
        result["setup_s"] = statistics.median(setups)
        result["rss_mb"] = rss_mb
        result["ops_per_cpu_s"] = statistics.median(per_cpu)
        return result, stats
    finally:
        for child in reversed(children):
            child.close()


def run_replay_child(seed, seconds, traced):
    args = [BINARY, "replay"] + common_args("commuter-replay", seed, seconds, traced)
    if traced:
        args += ["--spans", span_path("commuter-replay", seed)]
    child = Child("replay-" + ("traced" if traced else "plain"), args)
    try:
        return json.loads(child.expect("result", 170))
    finally:
        child.close()


# --- metrics -----------------------------------------------------------------


def inputs_ok(res):
    return (res["inputs_crc"] == res["inputs_crc_repeat"]
            and res["inputs_crc"] != res["inputs_crc_other_seed"])


def end_to_end(res):
    """Picks the end-to-end metrics out of a run's raw results."""
    return {k: res[k] for k in ("setup_s", "rss_mb", "ops_per_cpu_s")}


def capacity(workload, res):
    """Wall-clock throughput: the capacity search's result, or the replay's
    ops per wall-second."""
    return res["replay_ops_per_s" if workload == "commuter-replay" else "capacity_ops_per_s"]


def latency_sources(workload):
    """Op class -> the result-key prefix its latencies are recorded under."""
    if workload == "commuter-replay":
        return {k: k for k in ("update", "light_update", "pos", "range", "nn")}
    queries = "probe" if workload == "hot-leaf-update" else "nominal"
    return {"update": "nominal.update", "light_update": "light.update",
            "pos": f"{queries}.pos", "range": f"{queries}.range", "nn": f"{queries}.nn"}


def latencies(workload, res, quantiles):
    """Latency quantiles of an untraced run under their metric names."""
    return {f"{kind}_{q}_us": res[f"{src}_{q}_us"]
            for kind, src in latency_sources(workload).items() for q in quantiles}


def per_layer(workload, res, stats, plain):
    """Maps a traced run (res, stats) plus its untraced twin onto the
    per-layer metric names. Layers a workload does not exercise read 0."""
    g = stats.get
    ops = res["ops_sent"] if workload in UDP_WORKLOADS else res["ops"]
    ops = max(1, ops)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "wire.decode_ns": g("decode_ns", 0.0),
        "wire.encode_ns": g("encode_ns", 0.0),
        "net.send_ns": g("net.send.self_mean_ns", 0.0),
        "net.send_ns_p99": g("net.send.self_p99_ns", 0.0),
        "net.flush_ns": g("net.flush.self_mean_ns", 0.0),
        "core.dispatch_ns": g("core.dispatch.self_mean_ns", 0.0),
        "core.shard_wait_ns_p50": g("shard_wait_p50_ns", 0.0),
        "core.shard_wait_ns_p99": g("shard_wait_p99_ns", 0.0),
        "core.inbox_depth_p99": g("inbox_depth_p99", 0.0),
        "core.inbox_dropped": g("inbox_dropped", 0),
        "core.msgs_per_op": ratio(g("msgs_handled", 0), ops),
        "core.sub_res_copied_ratio": ratio(
            g("sub_res_copied", 0), g("sub_res_copied", 0) + g("sub_res_pinned", 0)),
        "core.pending_timeouts": g("pending_timeouts", 0),
        "core.decode_errors": g("decode_errors", 0),
        "spatial.useful_ratio": ratio(
            res.get("range_results", 0) + res.get("nn_results", 0), g("spatial_entries", 0)),
        "store.sightings": g("store_sightings", 0),
        "store.expired": g("sightings_expired", 0),
        "driver.failed_ratio": ratio(res["failed"], res["attempted"]),
    }
    # Wall-clock figures are unbounded (see README.md); they come from the
    # untraced run.
    m.update(latencies(workload, plain, ("p50", "p99")))
    m["capacity_ops_per_s"] = capacity(workload, plain)
    for cls in ("update", "pos", "range", "nn", "path", "other"):
        m[f"core.handle_self_ns.{cls}"] = g(f"core.handle.{cls}.self_mean_ns", 0.0)
    for op in ("insert", "update", "remove"):
        m[f"spatial.{op}_ns"] = g(f"spatial.{op}.self_mean_ns", 0.0)
        m[f"spatial.{op}_per_op"] = ratio(g(f"spatial.{op}.count", 0), ops)
    for op in ("query_rect", "query_circle", "k_nearest"):
        m[f"spatial.{op}_ns"] = g(f"spatial.{op}.self_mean_ns", 0.0)
    if workload in UDP_WORKLOADS:
        m["wire.bytes_per_op"] = ratio(g("traced_bytes_sent", 0) + res["gen_bytes_sent"], ops)
        m["net.syscalls_per_datagram"] = ratio(g("tx_syscalls", 0), g("tx_datagrams", 0))
        m["net.datagrams_per_op"] = ratio(g("tx_datagrams", 0) + res["gen_datagrams_sent"], ops)
        m["net.dropped"] = g("tx_dropped", 0)
        m["net.eagain_retries"] = g("tx_eagain", 0)
        m["net.sim_queue_ns_per_msg"] = 0.0
        m["driver.lateness_p99_us"] = res["lateness_p99_us"]
        m["driver.trace_overhead"] = ratio(res["nominal.update_p50_us"],
                                           plain["nominal.update_p50_us"])
    else:
        m["wire.bytes_per_op"] = ratio(res["bytes"], ops)
        m["net.syscalls_per_datagram"] = 0.0  # SimNetwork makes no syscalls
        m["net.datagrams_per_op"] = ratio(res["messages"], ops)
        m["net.dropped"] = 0
        m["net.eagain_retries"] = 0
        m["net.sim_queue_ns_per_msg"] = res["sim_queue_ns_per_msg"]
        m["driver.lateness_p99_us"] = 0.0  # no generator: the replay is not paced
        m["driver.trace_overhead"] = ratio(res["replay_ops_per_s"],
                                           res["traced_replay_ops_per_s"])
    return m


MAX_FAILED_RATIO = 0.001


def udp_correct(res):
    return (inputs_ok(res) and res["oracle_checked"] > 0 and res["oracle_mismatch"] == 0
            and res["failed"] <= MAX_FAILED_RATIO * res["attempted"])


def run_once(workload, seed, seconds, traced):
    """Returns (correct, attempted, failed, metrics, info). A traced run is
    correct only when its untraced twin is correct too."""
    if workload in UDP_WORKLOADS:
        plain, stats = run_udp(workload, seed, seconds, False)
        res, correct = plain, udp_correct(plain)
        if traced:
            res, stats = run_udp(workload, seed, seconds, True)
            correct = correct and udp_correct(res) and stats["codec_failures"] == 0
        info = {"oracle_checked": res["oracle_checked"], "oracle_mismatch": res["oracle_mismatch"],
                "oracle_skipped": res["oracle_skipped"],
                "lateness_p99_us": res["lateness_p99_us"],
                "latency_limit_us": res["latency_limit_us"],
                "search_trials": res["search_trials"]}
    else:
        res = plain = run_replay_child(seed, seconds, traced)
        stats = res
        correct = (inputs_ok(res) and res["crc_equal"] == 1 and res["failed"] == 0
                   and res.get("codec_failures", 0) == 0)
        info = {"trace_crc": res["trace_crc"], "answer_crc": res["answer_crc"],
                "repeats": res["repeats"]}
    end_to_end_units, per_layer_units = load_metrics()
    if traced:
        values, units = per_layer(workload, res, stats, plain), per_layer_units
    else:
        values, units = end_to_end(res), end_to_end_units
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: (values[k], units[k]) for k in units}
    info["inputs_crc"] = res["inputs_crc"]
    info["capacity_ops_per_s"] = capacity(workload, plain)
    info["latencies_us"] = latencies(workload, plain, ("p50", "p99"))
    info["latency_samples"] = {kind: int(plain[f"{src}_n"])
                               for kind, src in latency_sources(workload).items()}
    return correct, int(res["attempted"]), int(res["failed"]), metrics, info


def report(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.4f} {unit}")
    out = {"correct": bool(correct), "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(out))


def repeat_mode(args):
    """Stability harness: one workload over seeds seed..seed+N-1."""
    values = {}
    invalid = []
    all_correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        correct, attempted, failed, metrics, info = run_once(
            args.workload, seed, args.seconds, args.trace)
        late = info.get("lateness_p99_us", 0.0) > info.get("latency_limit_us", float("inf"))
        if late:
            invalid.append(seed)
        all_correct = all_correct and correct
        log(f"seed {seed}: correct={correct} failed={failed}/{attempted} "
            f"{'INVALID (generator late) ' if late else ''}{json.dumps(info)}")
        for name, (value, unit) in metrics.items():
            values.setdefault(name, ([], unit))[0].append(value)
    summary = {}
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for name, (vals, unit) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
                         "values": vals}
        print(f"{name:34s} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f} {unit}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "first_seed": args.seed,
                      "host_cores": os.cpu_count(), "invalid_seeds": invalid,
                      "all_correct": all_correct, "metrics": summary}))
    return 0 if all_correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="stability harness: run N seeds and print medians and quartiles")
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed ({e}); see .bench_build/logs/build.log")
        return 1
    try:
        if args.repeat > 0:
            return repeat_mode(args)
        correct, attempted, failed, metrics, info = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, KeyError, ValueError) as e:
        log(f"run failed: {e!r}")
        return 1
    log(json.dumps(info))
    report(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    # Turn SIGTERM into an exception so child processes are always reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
