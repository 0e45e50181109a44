"""Benchmark of the lpalattice CLI: seeded request streams, run in-process.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  With ``--trace 0`` one closed-loop
client sends the workload's requests, each ``main.main(args,
standalone_mode=False)`` on files the benchmark wrote from its seed, for the given
number of seconds, checks every output and prints the end-to-end metrics.
With ``--trace 1`` it first runs the same stream untraced in a fresh
interpreter, then traced in this one, and prints the per-layer metrics,
the tracing overhead and whether both runs gave the same outputs.
``--workload all`` runs ``--trace 1`` for every workload in turn.  The
last line of standard output is always one JSON object.  See README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
REQUEST_DEADLINE_S = 30.0  # the slowest request seen takes under 5 s
HARD_STOP_S = 90.0  # past this the loop ends even below MIN_REQUESTS
CHILD_TIMEOUT_S = 170.0


# The shared machine changes speed by itself, by tens of percent within
# seconds and within minutes, and every time the benchmark takes moves with
# it.  So a fixed pure-Python kernel, part of the benchmark and untouched by
# any change to the library, is timed between requests, outside the timed
# phase, and every time is reported scaled to a machine on which the kernel
# takes REFERENCE_S: multiplied by REFERENCE_S over the kernel's time at
# that moment, the median of the eight samples around it.  The times as
# measured are printed beside the scaled ones.
REFERENCE_S = 0.0007
SAMPLE_EVERY_S = 0.1


def reference_kernel(n: int = 1500) -> int:
    """Tuples, lists and dicts built and walked, a sort and big-int
    arithmetic: the kinds of work the library does.  Of the kernels tried,
    this one's time followed the requests' times most closely."""
    rows = [(i * 7919 % 1009, i) for i in range(n)]
    table = {}
    for key, i in rows:
        table.setdefault(key, []).append(i * i)
    acc = 1
    for key in sorted(table)[:60]:
        acc = acc * (key + 12345678901) + sum(table[key])
    return acc


def reference_time() -> float:
    """The kernel's time, the least of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Samples of the kernel's time through a run, and the factors they
    give to scale a time measured then to the reference speed."""

    def __init__(self):
        self.times, self.samples = [], []
        self.sample()

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(reference_time())

    def refresh(self):
        if time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def current(self) -> float:
        """The factor for a time measured now, from the latest samples."""
        return REFERENCE_S / statistics.median(self.samples[-4:])

    def scale(self, t: float) -> float:
        """The factor for a request that started at t, from the four
        samples taken before it and the four after, or as many as there
        are.  Fewer samples follow the machine more closely but carry more
        of the kernel's own noise: over five runs of one lattice seed, two
        and two left the median latency spread three times as far."""
        i = bisect.bisect(self.times, t)
        return REFERENCE_S / statistics.median(self.samples[max(0, i - 4):i + 4])


class RequestTimeout(BaseException):
    """Raised by the alarm when a request passes its deadline."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def import_program():
    """Import the CLI from this checkout's source tree, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "lpalattice", "__init__.py")):
        print(f"error: no lpalattice source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    from lpalattice import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: lpalattice was imported from {cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return cli


def set_up(workload: str, seed: int, traced: bool):
    """Import the program and build the opening requests and round 0;
    return the CLI module, the stream of rounds and the time since the
    first line of this file.

    Every run of a workload writes to the same directory, over the files of
    the run before, and leaves its files there: creating and deleting
    thousands of files per run made set-up times swing threefold."""
    cli = import_program()
    root = os.path.join(WORK, f"{workload}-trace{int(traced)}")
    stream = workloads.rounds(workload, seed, root)
    ready = [next(stream), next(stream)]
    return cli, itertools.chain(ready, stream), time.perf_counter() - _STARTED


def setup_time(workload: str, seed: int) -> tuple:
    """The median set-up time of SETUP_REPEATS fresh interpreters, each
    doing what set_up does, so that the import time is measured cold; each
    time as measured and scaled to the reference speed, sampled before it."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / reference_time()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0:
            print(child.stderr, end="", file=sys.stderr)
            sys.exit(f"error: set-up exited with {child.returncode}")
        times.append(float(child.stdout.split()[-1]))
        scaled.append(times[-1] * scale)
    return statistics.median(scaled), statistics.median(times)


def run_stream(cli, stream, seconds: float, tracer=None):
    """Send the requests of each round one after another, checking each
    outcome as it arrives, until a round ends after the timed phase reached
    the given seconds and MIN_REQUESTS requests were sent, or HARD_STOP_S
    pass.  The timed phase is the requests themselves: building a round,
    checking outcomes and sampling the machine's speed are left out.  It is
    counted at the reference speed, so that how many rounds a run sends
    depends on the program's speed, not on the machine's.  Latencies are
    kept as measured and scaled to the reference speed.

    A failed request stops the rest of its chain; each request so skipped
    counts as attempted and failed.  Peak memory is read when round 0
    ends: the library's caches grow with every request, so a later reading
    would grow with the speed of the code, which decides how many rounds
    fit in the time."""
    main = cli.main.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    measured, started, digests, failures = [], [], [], []
    broken = set()
    attempted = 0
    timed = 0.0
    rss_kb = None
    cut = None
    rounds = iter(stream)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    speed = Speed()
    t_start = time.perf_counter()
    try:
        for number in itertools.count(-1):
            requests = next(rounds, None)
            if requests is None:
                break
            for req in requests:
                if time.perf_counter() - t_start >= HARD_STOP_S:
                    cut = number
                    break
                attempted += 1
                if req.chain in broken:
                    failures.append((attempted - 1, req.kind, "skipped: its chain had failed"))
                    digests.append(hashlib.sha256(f"{req.kind}\0skipped".encode()).hexdigest())
                    continue
                if tracer is not None:
                    tracer.request = attempted - 1
                out, err = io.StringIO(), io.StringIO()
                code, error = 0, None
                t0 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, REQUEST_DEADLINE_S)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        main(list(req.args), standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code
                except RequestTimeout:
                    error = f"deadline of {REQUEST_DEADLINE_S} s passed"
                except Exception as exc:  # an unexpected exception fails the request
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                measured.append(time.perf_counter() - t0)
                started.append(t0)
                timed += measured[-1] * speed.current()
                outcome = workloads.Outcome(code, out.getvalue(), err.getvalue(), error)
                problem = req.check(outcome)
                if problem:
                    failures.append((attempted - 1, req.kind, problem))
                    broken.add(req.chain)
                elif req.save:
                    with open(req.save, "w") as fh:
                        fh.write(outcome.stdout)
                h = hashlib.sha256(f"{req.kind}\0{code}\0{error}\0".encode())
                for part in (outcome.stdout, outcome.stderr):
                    h.update(part.encode())
                    h.update(b"\0")
                digests.append(h.hexdigest())
                speed.refresh()
            if number == 0:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if cut is not None or time.perf_counter() - t_start >= HARD_STOP_S or (
                timed >= seconds and len(measured) >= workloads.MIN_REQUESTS
            ):
                break
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        speed.sample()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        "latencies": [d * speed.scale(t) for d, t in zip(measured, started)],
        "measured": measured,
        "speed": speed.samples,
        "digests": digests,
        "attempted": attempted,
        "failures": failures,
        "rss_kb": rss_kb,
        "cut": cut,
    }


def counts(run) -> tuple:
    """The result line's correct, attempted and failed: a run is correct
    only if no request failed, for whatever reason."""
    return not run["failures"], run["attempted"], len(run["failures"])


def stream_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def timings(lat, setup_s: float) -> dict:
    """The timing metrics of a run's latencies; the timed phase is their sum."""
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1000.0, "ms"),
    }


def end_to_end(run, setup_s: float) -> dict:
    metrics = timings(run["latencies"], setup_s)
    metrics["failed_ratio"] = (len(run["failures"]) / run["attempted"], "1")
    metrics["peak_rss_mb"] = (run["rss_kb"] / 1024.0, "MB")
    return metrics


def src_lines() -> dict:
    """Line counts of the package and of each layer's module (0 if gone)."""
    out = {f"src.{m}.lines": (0, "lines") for m in tracing.LAYERS}
    total = 0
    pkg = os.path.join(SRC, "lpalattice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                n = sum(1 for _ in fh)
            total += n
            if name[:-3] in tracing.LAYERS:
                out[f"src.{name[:-3]}.lines"] = (n, "lines")
    out["src.lines"] = (total, "lines")
    return out


def print_notes(run):
    if run["cut"] is not None:
        print(f"  note: the hard stop at {HARD_STOP_S:.0f} s ended the run partway "
              f"through round {run['cut']}")
    for i, kind, problem in run["failures"][:10]:
        print(f"  FAILED request {i} ({kind}): {problem}")


def benchmark_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, names) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    })


def untraced(args) -> int:
    import_program()
    setup_s, setup_measured = setup_time(args.workload, args.seed)
    cli, stream, _ = set_up(args.workload, args.seed, traced=False)
    run = run_stream(cli, stream, args.seconds)
    metrics = end_to_end(run, setup_s)
    measured = timings(run["measured"], setup_measured)
    lat = run["latencies"]
    correct, attempted, failed = counts(run)
    kernel = statistics.median(run["speed"])
    print(f"workload {args.workload}  seed {args.seed}  untraced: {attempted} requests, "
          f"{len(lat)} sent in {sum(run['measured']):.2f} s of requests, {failed} failed")
    print(f"  reference kernel {kernel * 1000:.3f} ms (median of {len(run['speed'])} samples); "
          f"times scaled to {REFERENCE_S * 1000:.3f} ms, as measured in brackets")
    above = len(lat) - int(len(lat) * 0.9)
    for name, (value, unit) in metrics.items():
        raw = f"  ({measured[name][0]:.4f})" if name in measured else ""
        note = f"  ({len(lat)} samples, {above} above p90)" if name == "latency_p90_ms" else ""
        print(f"  {name:<16} {value:>12.4f} {unit}{raw}{note}")
    print(f"  digest           {stream_digest(run['digests'])} ({len(run['digests'])} requests)")
    print_notes(run)
    if args.digests_out:
        with open(args.digests_out, "w") as fh:
            json.dump({"digests": run["digests"], "requests_per_s": metrics["requests_per_s"][0]}, fh)
    names = [m["name"] for m in benchmark_config()["end_to_end"]]
    print(result_line(correct, attempted, failed, metrics, names))
    return 0


def traced(args) -> int:
    tag = f"{args.workload}-{args.seed}"
    os.makedirs(WORK, exist_ok=True)
    digest_file = os.path.join(WORK, f"{tag}-untraced.json")
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--digests-out", digest_file],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(child.stdout + child.stderr, end="")
        print(f"error: the untraced run exited with {child.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    with open(digest_file) as fh:
        plain = json.load(fh)
    os.remove(digest_file)

    cli, stream, _ = set_up(args.workload, args.seed, traced=True)
    tracer = tracing.Tracer().install()
    try:
        run = run_stream(cli, stream, args.seconds, tracer)
    finally:
        tracer.remove()
    lat = run["latencies"]
    common = min(len(run["digests"]), len(plain["digests"]))
    same = run["digests"][:common] == plain["digests"][:common]
    rps = len(lat) / sum(lat)
    overhead = 100.0 * (plain["requests_per_s"] - rps) / plain["requests_per_s"]
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics.update(src_lines())
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{tag}.spans.jsonl.gz")
    tracer.write_spans(spans_path)

    correct, attempted, failed = counts(run)
    print(f"workload {args.workload}  seed {args.seed}  traced: {attempted} requests, "
          f"{failed} failed, {len(tracer.spans)} spans kept in "
          f"{os.path.relpath(spans_path, ROOT)}")
    print(f"  tracing overhead: {plain['requests_per_s']:.3f} -> {rps:.3f} requests/s ({overhead:.1f} %)")
    print(f"  outputs of the first {common} requests {'match' if same else 'DIFFER from'} the untraced run")
    if tracer.missing:
        print(f"  not in the library, so not traced: {', '.join(tracer.missing)}")
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    print("  self time by layer:")
    for layer in tracing.LAYERS:
        print(f"    {layer:<10} {layers[layer]:>10.3f} s  {100.0 * layers[layer] / total:>6.2f} %")
    print("  per-layer metrics:")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"    {name:<42} {shown:>14} {unit}")
    print_notes(run)
    names = [m["name"] for m in benchmark_config()["per_layer"]]
    print(result_line(same and correct, attempted, failed, metrics, names))
    return 0


def run_all(args) -> int:
    """Every workload, traced (which includes its untraced run), in turn."""
    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(child.stderr, end="", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
        ok = ok and summary[name]["correct"]
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digests-out", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_only:
        print(set_up(args.workload, args.seed, traced=False)[2])
        return 0
    if args.workload == "all":
        return run_all(args)
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
