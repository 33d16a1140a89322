"""Benchmark of the embdebias package, driven only from outside it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The input is the acceptance-criterion-9
set (unit 300-d rows with the bundled lexicons planted) generated from
``--seed`` at ``--rows`` rows. One client runs one iteration at a time
(closed loop) for ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json);
BLAS threads are pinned to one.

Workloads (see README.md for why each exists):

* ``report_pipeline``: ``embdebias report --pipeline`` as a child process.
* ``debias_write``: ``embdebias debias --strategy seq ... --out`` as a child.
* ``library_sweep``: in-process library calls on a set loaded once.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` untraced and traced iterations
alternate and it carries the per-layer metrics. Every iteration's output is
checked against an independent numpy reference outside the timed span.
Each result is also appended, with an environment record, to ``--record``.
"""

from __future__ import annotations

import os

#: BLAS threads for every process. One: on a 2-vCPU box a second OpenBLAS
#: thread spins on the sibling vCPU, which made debias_write ~20 % slower and
#: its spread wider than with one thread.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from tracing import SPAN_NAMES, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("report_pipeline", "debias_write", "library_sweep")
K = 2
#: Import-only children started before each CLI iteration; their median is
#: the CLI workloads' setup_s.
IMPORT_SAMPLES = 2
#: Sweep workers run one after another, each for an equal share of the
#: seconds, set-up included; their set-ups (import, load, normalize) give
#: library_sweep's setup_s.
SWEEP_WORKERS = 3
#: Filler rows whose debiased values debias_write checks besides the lexicon.
SAMPLED_NEUTRAL_ROWS = 200
#: Wall-clock budget of one run; children still running then are killed.
DEADLINE_S = 170.0
#: Units of per-layer metrics that count work and must repeat exactly.
EXACT_UNITS = ("count", "bytes", "ratio")
#: Share of the traced wall time the top-level spans must account for.
COVERAGE_MIN = 0.95

#: Layers each workload must call at least once; every other traced layer
#: must not be called. library_sweep's load and normalize happen in set-up.
CALLED = {
    "report_pipeline": {"embeddings.load", "embeddings.normalize", "wordsets.resolve",
                        "subspace.bias_subspace", "compose.compose", "debias.run_plan",
                        "debias.hard_debias", "evaluate.mac", "cli.main"},
    "debias_write": {"embeddings.load", "embeddings.normalize", "embeddings.save",
                     "wordsets.resolve", "subspace.bias_subspace", "debias.run_plan",
                     "debias.hard_debias", "cli.main"},
    "library_sweep": {"wordsets.resolve", "subspace.bias_subspace", "compose.compose",
                      "compose.validate_hypothesis", "debias.run_plan",
                      "debias.hard_debias", "evaluate.mac", "evaluate.ttest"},
}
SWEEP_SETUP_CALLED = {"embeddings.load", "embeddings.normalize"}


class Run:
    """State of one benchmark run: paths, child environment, deadline and
    the launcher that starts every child process."""

    def __init__(self, args):
        self.args = args
        self.root = Path.cwd()
        self.src = (self.root / args.src).resolve()
        self.work = self.root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.started = time.monotonic()
        self.launcher = None

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, argv, stdout_path=None, stderr_path=None) -> dict:
        """Run ``argv`` to completion through the launcher; returns its reply
        (``start``, ``wall_s`` from spawn to exit, ``code``, ``peak_rss_mb``)."""
        request = {"argv": [str(a) for a in argv], "cwd": str(self.work), "env": self.env,
                   "stdout": str(stdout_path or ""), "stderr": str(stderr_path or ""),
                   "timeout": max(self.remaining(), 1.0)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)


# --- workload commands ------------------------------------------------------------

def cli_args(workload, input_path, out_path):
    common = ["--embeddings", str(input_path), "--specs", *ref.SPECS, "--k", str(K)]
    if workload == "report_pipeline":
        return ["report", *common, "--pipeline", "--json", str(out_path)]
    return ["debias", *common, "--strategy", "seq", "--order", ",".join(ref.SPECS),
            "--out", str(out_path)]


class OutputCheck:
    """Checks one CLI iteration's output against the reference."""

    def __init__(self, workload, expected, vocab):
        self.workload, self.expected, self.vocab = workload, expected, vocab
        self.verified_digest = None

    def __call__(self, out_path) -> list[str]:
        if not out_path.is_file():
            return [f"{out_path.name} was not written"]
        if self.workload == "report_pipeline":
            with open(out_path, encoding="utf-8") as fh:
                return ref.check_report(json.load(fh), self.expected)
        # the output is deterministic: a file byte-identical to one that passed
        # the full check passes too
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        if digest == self.verified_digest:
            return []
        words, matrix = inputs.read_word2vec_text(out_path)
        problems = ref.check_rows(words, matrix, self.vocab, self.expected)
        if not problems:
            self.verified_digest = digest
        return problems


# --- measurement ------------------------------------------------------------------

def measure_cli(run: Run, input_path, check: OutputCheck):
    """Setup samples and the closed loop of CLI children."""
    py = sys.executable
    import_argv = [py, "-c", "import embdebias"]
    run.spawn(import_argv)  # warm-up: fills the bytecode cache
    setups = []

    suffix = ".json" if run.args.workload == "report_pipeline" else ".txt"
    out_path = run.work / f"output{suffix}"
    argv = cli_args(run.args.workload, input_path, out_path)
    iterations = []
    start = time.monotonic()
    while not iterations or time.monotonic() - start < run.args.seconds:
        if run.remaining() < 0:
            break
        # set-up samples spread over the run, outside the timed iterations
        setups += [run.spawn(import_argv)["wall_s"] for _ in range(IMPORT_SAMPLES)]
        for traced in ((False, True) if run.args.trace else (False,)):
            out_path.unlink(missing_ok=True)
            trace_path = run.work / "trace.json"
            stderr_path = run.work / "stderr.txt"
            if traced:
                child = [py, HERE / "worker.py", "cli", trace_path, "--", *argv]
            else:
                child = [py, "-m", "embdebias.cli", *argv]
            reply = run.spawn(child, stderr_path=stderr_path)
            code = reply["code"]
            record = {"wall_s": reply["wall_s"], "traced": traced,
                      "peak_rss_mb": reply["peak_rss_mb"],
                      "problems": [] if code == 0 else [f"exit code {code}"]}
            if code == 0:
                record["problems"] += check(out_path)
            if traced and code == 0:
                record.update(cli_trace(trace_path, stderr_path, reply))
            iterations.append(record)
    return setups, iterations


def cli_trace(trace_path, stderr_path, reply) -> dict:
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    summary = summarize(trace["spans"])
    import_start, import_end = trace["import_span"]
    summary["import_s"] = import_end - import_start
    # the CLI prints each captured warning on its own stderr line
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    skipped = sum(line.startswith("warning: WordSkippedWarning")
                  for line in stderr.splitlines())
    accounted = summary["import_s"] + summary["top_level_s"]
    return {"summary": summary, "counts": trace["counts"], "words_skipped": skipped,
            "accounted_share": accounted / reply["wall_s"]}


def measure_sweep(run: Run, input_path, expected):
    """The sweep, split over several workers run one after another; each
    worker's own set-up (spawn to a loaded, normalized set) is a set-up
    sample, so the samples are spread over the run."""
    py = sys.executable
    run.spawn([py, "-c", "import embdebias"])  # warm-up: fills the bytecode cache
    result_path = run.work / "sweep.json"
    stderr_path = run.work / "stderr.txt"
    setups, iterations = [], []
    for _ in range(SWEEP_WORKERS):
        code = run.spawn([py, HERE / "worker.py", "@T_SPAWN", input_path,
                          run.args.seconds / SWEEP_WORKERS, run.args.trace,
                          run.args.seed, result_path], stderr_path=stderr_path)["code"]
        if code != 0:
            sys.stderr.write(stderr_path.read_text(errors="replace"))
            raise RuntimeError(f"sweep worker exited with code {code}")
        with open(result_path, encoding="utf-8") as fh:
            sweep = json.load(fh)
        setups.append(sweep["setup"]["setup_s"])
        for record in sweep["iterations"]:
            record["problems"] = ref.check_sweep(record.pop("result"), expected)
            record["peak_rss_mb"] = sweep["peak_rss_mb"]
            if record["traced"]:
                record["setup"] = sweep["setup"]
                record["accounted_share"] = (record["summary"]["top_level_s"]
                                             / record["wall_s"])
            iterations.append(record)
    return setups, iterations


# --- metrics ----------------------------------------------------------------------

def high_percentile(samples):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; with fewer than 20 samples no such percentile reaches the
    median, so the maximum is reported as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(record) -> dict:
    """Per-layer metrics of one traced iteration; library_sweep's load and
    normalize come from the set-up of the worker that ran it."""
    layers, counts = record["summary"]["layers"], dict(record["counts"])
    io_layers = layers
    if "setup" in record:
        io_layers = record["setup"]["summary"]["layers"]
        counts["embeddings.load_bytes"] = record["setup"]["counts"].get(
            "embeddings.load_bytes", 0)

    def rate(n_bytes, seconds):
        return n_bytes / 1e6 / seconds if seconds > 0 else 0.0

    load_s = io_layers["embeddings.load"]["self_s"]
    save_s = layers["embeddings.save"]["self_s"]
    rows = counts.get("debias.rows_computed", 0)
    cli_self = layers["cli.main"]["self_s"] + record["summary"].get("import_s", 0.0)
    return {
        "embeddings.load_s": load_s,
        "embeddings.load_bytes": counts.get("embeddings.load_bytes", 0),
        "embeddings.load_mb_per_s": rate(counts.get("embeddings.load_bytes", 0), load_s),
        "embeddings.save_s": save_s,
        "embeddings.save_bytes": counts.get("embeddings.save_bytes", 0),
        "embeddings.save_mb_per_s": rate(counts.get("embeddings.save_bytes", 0), save_s),
        "embeddings.normalize_s": io_layers["embeddings.normalize"]["self_s"],
        "wordsets.resolve_s": layers["wordsets.resolve"]["self_s"],
        "wordsets.resolve_calls": layers["wordsets.resolve"]["calls"],
        "wordsets.words_requested": counts.get("wordsets.words_requested", 0),
        "debias.run_plan_s": layers["debias.run_plan"]["self_s"],
        "debias.hard_debias_s": layers["debias.hard_debias"]["self_s"],
        "debias.hard_debias_calls": layers["debias.hard_debias"]["calls"],
        "debias.rows_computed": rows,
        "debias.bytes_computed": counts.get("debias.bytes_computed", 0),
        "debias.useful_row_ratio": counts.get("debias.useful_rows", 0) / rows if rows else 0.0,
        "debias.words_skipped": record["words_skipped"],
        "subspace.bias_subspace_s": layers["subspace.bias_subspace"]["self_s"],
        "subspace.calls": layers["subspace.bias_subspace"]["calls"],
        "compose.s": layers["compose.compose"]["self_s"],
        "compose.calls": layers["compose.compose"]["calls"],
        "compose.validate_hypothesis_s": layers["compose.validate_hypothesis"]["self_s"],
        "evaluate.mac_s": layers["evaluate.mac"]["self_s"],
        "evaluate.mac_calls": layers["evaluate.mac"]["calls"],
        "evaluate.ttest_s": layers["evaluate.ttest"]["self_s"],
        "cli.self_s": cli_self,
    }


def coverage_problems(workload, record) -> list[str]:
    """Expected layers called, others not, and spans accounting for the wall."""
    problems = []
    called = CALLED[workload]
    for name in SPAN_NAMES:
        calls = record["summary"]["layers"][name]["calls"]
        if (name in called) != (calls > 0):
            problems.append(f"layer {name}: {calls} call(s), expected "
                            f"{'some' if name in called else 'none'}")
    if "setup" in record:
        for name in SWEEP_SETUP_CALLED:
            if record["setup"]["summary"]["layers"][name]["calls"] == 0:
                problems.append(f"set-up layer {name} was not called")
    share = record["accounted_share"]
    if not COVERAGE_MIN <= share <= 1.0 + 1e-6:
        problems.append(f"top-level spans account for {share:.1%} of the traced wall time")
    return problems


def end_to_end(args, setups, untraced, rss):
    walls = [r["wall_s"] for r in untraced]
    wall = statistics.median(walls)
    hi, pct = high_percentile(walls)
    attempted = len(untraced)
    failed = sum(bool(r["problems"]) for r in untraced)
    metrics = {
        "wall_s": wall,
        "wall_s_hi": hi,
        "rows_per_s": args.rows / wall,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
        "success_rate": (attempted - failed) / attempted,
    }
    notes = {"wall_s_hi_percentile": pct, "samples": len(walls),
             "error_rate": failed / attempted, "setup_samples": len(setups)}
    return metrics, notes


def per_layer(args, iterations, spec_list):
    """Per-layer metrics: medians over traced iterations, with count-like
    metrics kept exact."""
    exact = {m["name"] for m in spec_list if m["unit"] in EXACT_UNITS}
    traced = [r for r in iterations if r["traced"]]
    untraced = [r for r in iterations if not r["traced"]]
    problems = []
    per_iter = []
    for r in traced:
        if "summary" not in r:
            continue
        problems += coverage_problems(args.workload, r)
        per_iter.append(layer_metrics(r))
    if not per_iter:
        raise RuntimeError("no traced iteration completed")
    metrics = {name: (statistics.median_low if name in exact else statistics.median)(
        m[name] for m in per_iter) for name in per_iter[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    counts = [{k: v for k, v in m.items() if k in exact} for m in per_iter]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    # library_sweep loads and normalizes in set-up, outside its iterations
    outside = {"trace.overhead_s"} | (
        {"embeddings.load_s", "embeddings.normalize_s"}
        if args.workload == "library_sweep" else set())
    notes = {"traced_wall_s": traced_wall,
             "share_of_traced_wall": {m["name"]: metrics[m["name"]] / traced_wall
                                      for m in spec_list if m["unit"] == "s"
                                      and m["name"] not in outside},
             "traced_samples": len(traced), "untraced_samples": len(untraced),
             "counts_repeat": all(c == counts[0] for c in counts),
             "accounted_share": [r.get("accounted_share") for r in traced],
             "coverage_problems": sorted(set(problems))}
    return metrics, notes, problems


# --- environment and output ---------------------------------------------------------

def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": THREADS,
            "rows": args.rows, "dim": inputs.DIM, "seed": args.seed}


def select(spec_list, values) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=109)
    p.add_argument("--seconds", type=float,
                   help="seconds to measure (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=10_000,
                   help="input rows (default: 10000)")
    p.add_argument("--src", default="src",
                   help="directory holding the embdebias package (default: src)")
    p.add_argument("--record", default=".perfbench/results.jsonl",
                   help="JSON-lines file each result is appended to")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args)
    bench_path = run.root / "BENCHMARK.json"
    if not (run.src / "embdebias" / "__init__.py").is_file():
        print(f"error: no embdebias package under {run.src}", file=sys.stderr)
        return 2
    if not bench_path.is_file():
        print(f"error: {bench_path} not found", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    with run:
        return execute(run, bench)


def execute(run: Run, bench) -> int:
    args = run.args
    lexicons = ref.load_lexicons(run.src)
    lexicon = ref.lexicon_words(lexicons)
    words, matrix = inputs.generate(lexicon, args.rows, args.seed)
    input_path = run.work / "input.txt"
    inputs.write_word2vec_text(input_path, words, matrix)

    # reference results on the lexicon rows (plus sampled filler rows for the
    # written file); the program normalizes the loaded rows the same way
    rng = np.random.default_rng(args.seed + 1)
    sampled = sorted(rng.choice(np.arange(len(lexicon), args.rows),
                                SAMPLED_NEUTRAL_ROWS, replace=False))
    lex_rows = ref.Rows(lexicon, ref.unit_rows(matrix[:len(lexicon)]))
    row_idx = list(range(len(lexicon))) + [int(i) for i in sampled]
    subset = ref.Rows([words[i] for i in row_idx], ref.unit_rows(matrix[row_idx]))
    specs = [lexicons[n] for n in ref.SPECS]
    expected_report = ref.expected_report(lex_rows, lexicons, K)
    expected_rows = ref.run_plan(subset, specs, "seq", K, ref.SPECS)
    failures = ref.self_test(expected_report, expected_rows)
    for failure in failures:
        print(f"self-test failed: {failure}", file=sys.stderr)

    if args.workload == "library_sweep":
        expected = ref.expected_sweep(lex_rows, lexicons, K, args.seed)
        setups, iterations = measure_sweep(run, input_path, expected)
    else:
        expected = expected_report if args.workload == "report_pipeline" else expected_rows
        check = OutputCheck(args.workload, expected, words)
        setups, iterations = measure_cli(run, input_path, check)

    untraced = [r for r in iterations if not r["traced"]]
    rss = statistics.median(r["peak_rss_mb"] for r in untraced)
    e2e, notes = end_to_end(args, setups, untraced, rss)
    problems = [p for r in iterations for p in r["problems"]]
    attempted = len(iterations)
    failed = sum(bool(r["problems"]) for r in iterations)
    if args.trace:
        metrics, layer_notes, coverage = per_layer(args, iterations, bench["per_layer"])
        notes.update(layer_notes)
        failures += coverage
        result_metrics = select(bench["per_layer"], metrics)
    else:
        result_metrics = select(bench["end_to_end"], e2e)
    correct = failed == 0 and not failures

    env = environment(args)
    for p in sorted(set(problems + failures))[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {args.workload}: {attempted} iteration(s), {failed} failed, "
          f"{args.rows} rows, seed {args.seed}, trace {args.trace}")
    shares = notes.get("share_of_traced_wall", {})
    for name, m in result_metrics.items():
        share = f"  {shares[name]:6.1%} of traced wall" if name in shares else ""
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{share}")
    if not args.trace:
        print(f"  {'error_rate':<32} {notes['error_rate']:>14.6g} ratio")
        print(f"  wall_s_hi is percentile {notes['wall_s_hi_percentile']:.0f} of "
              f"{notes['samples']} iteration(s)")
    print(json.dumps({"environment": env, "notes": notes}))
    record_path = run.root / args.record
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "src": args.src, "environment": env,
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result_metrics, "notes": notes,
            "walls": [r["wall_s"] for r in iterations if not r["traced"]],
        }) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
