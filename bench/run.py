"""The wzeta benchmark.

    python3 bench/run.py --workload {digits,verify,accelerate} --seed N
                         --seconds S --trace {0,1} [--results DIR]

Drives the `wzeta` command line of this checkout as a closed loop: one
client, one child process at a time, the next command only after the
last one finished. The seed only shuffles the order of the commands
within each pass. Every output is checked against an independent
reference (checks.py). The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a full record of the run,
every raw sample included, goes to DIR (default bench/out).

With --trace 0 the metrics are end to end, measured with tracing off.
With --trace 1 the same commands also run in-process through
`wzeta.cli.main`, once plain and once with spans recorded around the
public functions of each module (spans.py), and the metrics are the
per-layer split. The program's own files are never edited.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import calibrate
import checks
from spans import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "wzeta" / "__init__.py"

# What the installed `wzeta` console script runs, plus a report of the
# child's peak RSS on stderr at exit. VmHWM counts only the memory mapped
# since exec; the child's own ru_maxrss would start from the harness's
# size, because the child is forked from it.
PEAK_TAG = "bench-peak-rss-kb"
ENTRY = f"""\
import atexit, sys

def peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write("\\n{PEAK_TAG} " + line.split()[1] + "\\n")

atexit.register(peak)
from wzeta.cli import main
sys.exit(main())
"""
COMMAND_TIMEOUT_S = 30  # about ten times the slowest command
RUN_BUDGET_S = 120  # no command starts later than this into a run
SETUP_SAMPLES = 25  # at least; one start takes ~0.1 s

WORKLOADS = ("digits", "verify", "accelerate")

END_TO_END_UNITS = {
    "setup_s": "s",
    "scaled_wall_s": "s",
    "scaled_work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "dsl.parse_s": "s",
    "dsl.parse_calls": "count",
    "catalog.load_s": "s",
    "terms.value_at_s": "s",
    "terms.value_at_calls": "count",
    "terms.shift_ratio_s": "s",
    "terms.shift_ratio_calls": "count",
    "algebra.evaluate_s": "s",
    "algebra.evaluate_calls": "count",
    "series.term_gen_s": "s",
    "series.terms_yielded": "count",
    "series.passes": "count",
    "series.partial_sum_s": "s",
    "series.tail_bound_s": "s",
    "precision.sum_s": "s",
    "precision.accumulate_s": "s",
    "precision.terms_used": "count",
    "precision.partial_den_bits": "bits",
    "precision.render_s": "s",
    "wz.grid_s": "s",
    "wz.grid_points": "count",
    "wz.symbolic_s": "s",
    "wz.symbolic_points": "count",
    "wz.degree_bound": "count",
    "wz.accelerate_s": "s",
    "wz.two_sided_gap_s": "s",
    "cli.overhead_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: checks.Checker
    units: int  # certified digits, points or terms delivered on success


@dataclass
class Result:
    argv: tuple[str, ...]
    wall_s: float
    returncode: int | None
    stdout_bytes: int
    failure: str | None  # None when the output checked out
    rss_kb: int = 0  # children only
    cpu_s: float = 0.0  # children only
    scaled_s: float = 0.0  # end-to-end children only: wall_s at reference speed


def build_workload(name: str) -> list[Command]:
    if name == "digits":
        # The 4500-digit request fails today: the decimal has more digits
        # than CPython's int-str limit allows, and the error escapes as a
        # traceback with exit 1. It fails only after all the summation
        # work, so it stays in, counted as a failure, and a fix will not
        # read as a slowdown.
        reference = checks.load_reference()

        def digits(series: str, count: int, mode: str = "exact") -> Command:
            argv = ("digits", "--series", series, "--digits", str(count))
            if mode != "exact":
                argv += ("--mode", mode)
            return Command(argv, checks.digits_checker(reference, series, count, mode), count)

        series = ("s1", "s2", "s3")
        return (
            [digits(s, d) for s in series for d in (1000, 3000)]
            + [digits(s, 3000, "scaled") for s in series]
            + [digits("s3", 4500)]
        )
    if name == "verify":

        def grid(pair: str, s: int, n_max: int) -> Command:
            points = checks.grid_points(s, n_max)
            argv = ("verify", "--pair", pair, "--nmax", str(n_max))
            return Command(argv, checks.verify_checker(points), points)

        def symbolic(pair: str, points: int) -> Command:
            argv = ("verify", "--pair", pair, "--symbolic")
            return Command(argv, checks.verify_checker(points), points)

        return [grid("s1", 1, 200), grid("s2", 2, 120), symbolic("s1", 64), symbolic("s2", 165)]
    if name == "accelerate":
        # `accelerate --pair s2 --terms 3000` exits 1 at term 2996 for the
        # int-str limit that also fails the 4500-digit request above. It
        # is left out: it stops before the two-sided comparison, so a fix
        # would add that work and read as a slowdown.

        def accel(pair: str, terms: int) -> Command:
            argv = ("accelerate", "--pair", pair, "--terms", str(terms))
            return Command(argv, checks.accelerate_checker(pair, terms), terms)

        return [accel("s1", 4000), accel("s2", 2500)]
    raise ValueError(f"unknown workload {name!r}")


def classify(returncode: int | None, stdout: str, stderr: str, check) -> str | None:
    """None for a right result, else the failure: `traceback`, `exit N`
    or `wrong` (a finished command whose output is not right)."""
    last = stderr.strip().splitlines()[-1:] or [""]
    if "Traceback (most recent call last)" in stderr:
        return f"traceback: {last[0]}"
    if returncode not in (0, 1):  # 1 is a verification that ran and failed
        return f"exit {returncode}: {last[0]}"
    problem = check(stdout)
    if problem is not None:
        return f"wrong: {problem}"
    if returncode != 0:
        return f"exit {returncode}: {last[0]}"
    return None


def child_env() -> dict[str, str]:
    """The caller's environment, with the checkout's src/ as the only
    PYTHONPATH entry and no int-str override, so that defect shows."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs commands as child processes, one at a time. Output goes to
    unlinked files in `scratch`, and the child is reaped with wait4 so
    its own resource usage is known."""

    def __init__(self, env: dict[str, str], deadline: float, scratch: Path):
        self.env = env
        self.deadline = deadline
        self.scratch = scratch

    def run(self, argv: tuple[str, ...], check) -> Result:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Result(argv, 0.0, None, 0, "timeout: run budget spent before start")
        timeout = min(COMMAND_TIMEOUT_S, remaining)
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv],
                                    cwd=ROOT, env=self.env, stdout=out, stderr=err)
            finished = False
            try:
                finished = _exits_within(proc.pid, timeout)
            finally:
                if not finished:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        text, _, peak = stderr.decode("utf-8", "replace").partition(f"\n{PEAK_TAG} ")
        rss_kb, _, rest = peak.partition("\n")
        if finished:
            failure = classify(proc.returncode, stdout.decode("utf-8", "replace"), text + rest, check)
        else:
            failure = f"timeout: over {timeout:.1f} s"
        return Result(argv, wall, proc.returncode, len(stdout), failure,
                      rss_kb=int(rss_kb or 0), cpu_s=usage.ru_utime + usage.ru_stime)


def _exits_within(pid: int, timeout: float) -> bool:
    """Wait up to `timeout` seconds for the child to exit, leaving it
    unreaped."""
    fd = os.pidfd_open(pid)
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


def refuse(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin(env: dict[str, str]) -> dict:
    """Make sure children import wzeta from this checkout's src/."""
    if not PACKAGE_INIT.is_file():
        refuse(f"no wzeta sources under {SRC}; run from a full checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, wzeta; print(wzeta.__file__); print(sys.get_int_max_str_digits())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    lines = probe.stdout.split()
    if probe.returncode != 0 or len(lines) != 2:
        refuse(f"cannot import wzeta from {SRC}: {probe.stderr.strip()[-300:]}")
    if Path(lines[0]).resolve() != PACKAGE_INIT.resolve():
        refuse(f"children import wzeta from {lines[0]}, not {PACKAGE_INIT}")
    return {"wzeta_file": lines[0], "child_int_max_str_digits": int(lines[1])}


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, started_utc: str) -> dict:
    return {
        "python": sys.version,
        "executable": sys.executable,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "src_sha256": tree_hash(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command_timeout_s": COMMAND_TIMEOUT_S,
        "started_utc": started_utc,
    }


def keep_going(started: float, pass_started: float, seconds: float, deadline: float) -> bool:
    """Start another pass only if one more like the last fits in time."""
    now = time.monotonic()
    return now + (now - pass_started) - started <= seconds and now < deadline


# -- end-to-end run ------------------------------------------------------


def end_to_end_metrics(setup: list[Result],
                       passes: list[list[tuple[Command, Result]]]) -> dict[str, float]:
    """Times are the children's wall times scaled to the reference machine
    speed (calibrate.py); each metric is a median over the run."""
    walls, rates, peaks = [], [], []
    for done in passes:
        walls.append(sum(r.scaled_s for _, r in done))
        good = [(c, r) for c, r in done if r.failure is None]
        busy = sum(r.scaled_s for _, r in good)
        rates.append(sum(c.units for c, _ in good) / busy if busy else 0.0)
        peaks.append(max(r.rss_kb for _, r in done) / 1024)
    results = [r for done in passes for _, r in done]
    return {
        "setup_s": statistics.median(r.scaled_s for r in setup),
        "scaled_wall_s": statistics.median(walls),
        "scaled_work_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(peaks),
        "ok_ratio": sum(r.failure is None for r in results) / len(results),
    }


def run_end_to_end(commands, args, runner, deadline):
    runner.run(("list",), checks.check_listing)  # fills __pycache__; not counted
    rng = random.Random(args.seed)
    setup, passes = [], []
    speed = [calibrate.machine_time()]

    def scaled(argv, check) -> Result:
        """Run a child between two machine-speed samples and scale its wall
        time to the reference speed."""
        result = runner.run(argv, check)
        speed.append(calibrate.machine_time())
        result.scaled_s = result.wall_s * calibrate.REFERENCE_S / statistics.fmean(speed[-2:])
        return result

    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        done = []
        for command in rng.sample(commands, len(commands)):
            setup.append(scaled(("list",), checks.check_listing))
            done.append((command, scaled(command.argv, command.check)))
        passes.append(done)
        if not keep_going(started, pass_started, args.seconds, deadline):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(scaled(("list",), checks.check_listing))
    metrics = end_to_end_metrics(setup, passes)
    results = setup + [r for done in passes for _, r in done]
    record = {
        "machine_time_s": speed,
        "setup": [asdict(r) for r in setup],
        "passes": [[asdict(r) for _, r in done] for done in passes],
    }
    return metrics, results, record


# -- traced run ----------------------------------------------------------


@contextlib.contextmanager
def program_int_limit():
    """The interpreter default int-str limit, as a child process sees it;
    the harness lifts the limit for its own checks."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def run_in_process(cli, command: Command) -> Result:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), program_int_limit():
        try:
            code = cli.main(list(command.argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # the interpreter would print it and exit 1
            crash, code = exc, 1
    wall = time.perf_counter() - start
    stderr = err.getvalue()
    if crash is not None:
        stderr += "".join(traceback.format_exception(crash))
    stdout = out.getvalue()
    failure = classify(code, stdout, stderr, command.check)
    return Result(command.argv, wall, code, len(stdout.encode()), failure)


def trace_targets(reports: list) -> dict:
    """Public functions of each module, by name, with their span names.
    Names that no longer exist are skipped (see Recorder.attach)."""

    def summed(report, counts):
        counts["precision.terms_used"] += report.terms_used
        reports.append(report)

    def grid(report, counts):
        counts["wz.grid_points"] += report.points_checked

    def symbolic(report, counts):
        counts["wz.symbolic_points"] += report.points_checked
        counts["wz.degree_bound"] = max(counts["wz.degree_bound"], report.degree_bound or 0)

    return {
        "wzeta.cli:main": ("cli.main", None),
        "wzeta.catalog:load_catalog": ("catalog.load", None),
        "wzeta.dsl:parse_term": ("dsl.parse", None),
        "wzeta.terms:HyperTerm.value_at": ("terms.value_at", None),
        "wzeta.terms:HyperTerm.shift_ratio": ("terms.shift_ratio", None),
        "wzeta.terms:cross_ratio": ("terms.cross_ratio", None),
        "wzeta.algebra:RationalFunction.evaluate": ("algebra.evaluate", None),
        "wzeta.series:SeriesSpec.terms": ("series.term_gen", None),
        "wzeta.series:SeriesSpec.term_at": ("series.term_at", None),
        "wzeta.series:SeriesSpec.partial_sum": ("series.partial_sum", None),
        "wzeta.series:SeriesSpec.tail_bound": ("series.tail_bound", None),
        "wzeta.precision:sum_to_digits": ("precision.sum", summed),
        "wzeta.precision:truncated_decimal": ("precision.render", None),
        "wzeta.precision:EvalReport.serialize": ("precision.render", None),
        "wzeta.wz:verify_grid": ("wz.grid", grid),
        "wzeta.wz:verify_symbolic": ("wz.symbolic", symbolic),
        "wzeta.wz:certificate": ("wz.certificate", None),
        "wzeta.wz:accelerate": ("wz.accelerate", None),
        "wzeta.wz:lhs_series": ("wz.lhs_series", None),
        "wzeta.wz:two_sided_gap": ("wz.two_sided_gap", None),
    }


def layer_metrics(recorder: Recorder, e2e: list[Result], plain: list[Result],
                  traced: list[Result]) -> dict[str, float]:
    totals = recorder.totals()
    counts = recorder.counts

    def secs(name: str, key: str = "total_ns") -> float:
        return totals.get(name, {}).get(key, 0) / 1e9

    main = totals.get("cli.main", {"total_ns": 0, "self_ns": 0})
    in_plain = sum(r.wall_s for r in plain)
    return {
        "dsl.parse_s": secs("dsl.parse"),
        "dsl.parse_calls": counts["dsl.parse.calls"],
        "catalog.load_s": secs("catalog.load"),
        "terms.value_at_s": secs("terms.value_at"),
        "terms.value_at_calls": counts["terms.value_at.calls"],
        "terms.shift_ratio_s": secs("terms.shift_ratio"),
        "terms.shift_ratio_calls": counts["terms.shift_ratio.calls"],
        "algebra.evaluate_s": secs("algebra.evaluate"),
        "algebra.evaluate_calls": counts["algebra.evaluate.calls"],
        "series.term_gen_s": secs("series.term_gen"),
        "series.terms_yielded": counts["series.term_gen.yields"],
        "series.passes": counts["series.term_gen.calls"],
        "series.partial_sum_s": secs("series.partial_sum"),
        "series.tail_bound_s": secs("series.tail_bound"),
        "precision.sum_s": secs("precision.sum"),
        "precision.accumulate_s": secs("precision.sum", "self_ns"),
        "precision.terms_used": counts["precision.terms_used"],
        "precision.partial_den_bits": 0,  # filled in by the replay
        "precision.render_s": secs("precision.render"),
        "wz.grid_s": secs("wz.grid"),
        "wz.grid_points": counts["wz.grid_points"],
        "wz.symbolic_s": secs("wz.symbolic"),
        "wz.symbolic_points": counts["wz.symbolic_points"],
        "wz.degree_bound": counts["wz.degree_bound"],
        "wz.accelerate_s": secs("wz.accelerate"),
        "wz.two_sided_gap_s": secs("wz.two_sided_gap"),
        "cli.overhead_s": sum(r.wall_s for r in e2e) - in_plain,
        "cli.stdout_bytes": sum(r.stdout_bytes for r in e2e),
        "trace.coverage": 1 - main["self_ns"] / main["total_ns"] if main["total_ns"] else 0.0,
        "trace.overhead_s": sum(r.wall_s for r in traced) - in_plain,
    }


def command_coverage(recorder: Recorder, commands: list[Command]) -> list[dict]:
    """Per traced command (in run order): in-process time and the share
    of it inside named spans below cli.main."""
    own = recorder.self_times()
    tops = [i for i, (name, parent) in enumerate(zip(recorder.names, recorder.parents))
            if name == "cli.main" and parent < 0]
    out = []
    for command, index in zip(commands, tops):
        start, end = recorder.starts[index], recorder.ends[index]
        out.append({
            "argv": command.argv,
            "in_process_s": (end - start) / 1e9,
            "coverage": 1 - own[index] / (end - start),
        })
    return out


def replay_partial_den_bits(wzeta, reports: list) -> int:
    """Bit length of the denominator of the exact partial sum behind the
    s3 3000-digit request, recomputed after the timed passes."""
    for report in reports:
        if (report.series, report.mode, report.certified_digits) == ("s3", "exact", 3000):
            try:
                series = wzeta.load_catalog().series_by_name("s3")
                with program_int_limit():
                    return series.partial_sum(report.terms_used).denominator.bit_length()
            except AttributeError as exc:  # the program's API moved on
                print(f"bench: no partial-sum replay: {exc}", file=sys.stderr)
    return 0


def run_traced(commands, args, runner, deadline, record_path: Path):
    sys.path.insert(0, str(SRC))
    import wzeta
    import wzeta.cli as cli

    if Path(wzeta.__file__).resolve() != PACKAGE_INIT.resolve():
        refuse(f"in-process import of wzeta resolved to {wzeta.__file__}")
    rng = random.Random(args.seed)
    recorder = Recorder()
    reports: list = []
    cycles, results, raw = [], [], []
    skipped: list[str] = []
    started = time.monotonic()
    while True:
        cycle_started = time.monotonic()
        order = rng.sample(commands, len(commands))
        e2e, plain, traced = [], [], []
        recorder.reset()
        reports.clear()
        # child, plain and traced run of one command back to back, so
        # their differences see the same machine state
        for command in order:
            e2e.append(runner.run(command.argv, command.check))
            # an in-process run cannot be stopped: none after a timeout,
            # nor when the two would not end before the run's deadline
            if (e2e[-1].failure or "").startswith("timeout") or \
                    time.monotonic() + 2 * e2e[-1].wall_s > deadline:
                break
            plain.append(run_in_process(cli, command))
            skipped = recorder.attach(trace_targets(reports))
            try:
                traced.append(run_in_process(cli, command))
            finally:
                recorder.detach()
        results += e2e + plain + traced
        cycle = {"e2e": [asdict(r) for r in e2e]}
        raw.append(cycle)
        if len(traced) < len(order):
            break
        cycles.append(layer_metrics(recorder, e2e, plain, traced))
        cycle.update(
            in_process=[asdict(r) for r in plain],
            traced=[asdict(r) for r in traced],
            layers=cycles[-1],
            commands=command_coverage(recorder, order),
        )
        if not keep_going(started, cycle_started, args.seconds, deadline):
            break
    if not cycles:
        return None, results, {"cycles": raw, "skipped_targets": skipped}
    metrics = {name: statistics.median(c[name] for c in cycles) for name in PER_LAYER_UNITS}
    metrics["precision.partial_den_bits"] = replay_partial_den_bits(wzeta, reports)
    for entry in raw[-1]["commands"]:
        print(f"bench: traced {' '.join(entry['argv'])}: {entry['in_process_s']:.3f} s in-process, "
              f"{entry['coverage']:.4f} in named spans", file=sys.stderr)
    spans_path = record_path.with_suffix(".spans.tsv")
    recorder.write(spans_path)
    record = {"cycles": raw, "skipped_targets": skipped, "spans_file": spans_path.name}
    return metrics, results, record


# -- entry point ---------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--results", type=Path, default=BENCH / "out",
                        help="directory for the run record (default: bench/out)")
    args = parser.parse_args(argv)

    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    pinned = pin(env)
    sys.set_int_max_str_digits(0)  # the checks parse multi-thousand-digit integers
    commands = build_workload(args.workload)
    args.results.mkdir(parents=True, exist_ok=True)
    runner = Runner(env, deadline, args.results)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record_path = args.results / f"{run_id}.json"

    if args.trace:
        metrics, results, detail = run_traced(commands, args, runner, deadline, record_path)
        units = PER_LAYER_UNITS
    else:
        metrics, results, detail = run_end_to_end(commands, args, runner, deadline)
        units = END_TO_END_UNITS
    failures = [r for r in results if r.failure is not None]
    for r in failures:
        print(f"bench: {' '.join(r.argv)}: {r.failure}", file=sys.stderr)
    if metrics is None:
        refuse("no traced cycle completed: a command timed out or the run budget ran out")
    summary = {
        "correct": not any(r.failure.startswith("wrong") for r in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"environment": environment(args, started_utc), **pinned, **detail, "result": summary}
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench: record written to {record_path}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
