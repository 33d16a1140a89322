"""Child processes of the benchmark; ``run.py`` starts them.

    worker.py cli TRACE_OUT -- CLI_ARGS...
        Run ``embdebias.cli.main(CLI_ARGS)`` traced and write the spans to
        TRACE_OUT; exits with the CLI's code.
    worker.py T_SPAWN INPUT SECONDS TRACE SEED OUT
        Import the package, load and normalize INPUT, then repeat the
        library sweep until SECONDS after T_SPAWN (every other iteration
        traced when TRACE is 1) and write the set-up time, per-iteration
        times and results to OUT. T_SPAWN is the launcher's ``time.monotonic()`` reading just
        before it started the child; on Linux that clock is shared by all
        processes.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import warnings

from tracing import Tracer, summarize

K = 2


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_cli(argv):
    trace_out = argv[0]
    if argv[1] != "--":
        raise SystemExit("usage: worker.py cli TRACE_OUT -- CLI_ARGS...")
    start = time.monotonic()
    import embdebias.cli
    imported = time.monotonic()
    tracer = Tracer()
    with tracer:
        code = embdebias.cli.main(argv[2:])
    record = tracer.take()
    record.update(code=code, import_span=[start, imported])
    _write_json(trace_out, record)
    return code


def sweep_iteration(ed, emb, specs, ground_truth, plans, seed) -> dict:
    """Every sweep plan, its MACs and t-tests against the biased set, and one
    hypothesis validation; returns the numbers the output check compares."""
    biased = [ed.mac_for_category(s, emb) for s in specs]
    out = {"mac": {"biased": [r.mac for r in biased]}, "ttest": {}}
    for label, plan in plans:
        debiased = ed.run_plan(emb, specs, plan)
        reports = [ed.mac_for_category(s, debiased) for s in specs]
        out["mac"][label] = [r.mac for r in reports]
        out["ttest"][label] = [list(ed.paired_t_test(b.table.ravel(), r.table.ravel()))
                               for b, r in zip(biased, reports)]
    hyp = ed.validate_hypothesis(specs[:2], ground_truth, emb, K, seed=seed)
    out["hypothesis"] = {"category": [v for _, v in hyp.category_similarity],
                         "random": hyp.random_similarity,
                         "josec": hyp.josec_similarity}
    return out


def run_sweep(argv):
    t_spawn, path, seconds = float(argv[0]), argv[1], float(argv[2])
    trace, seed, out_path = argv[3] == "1", int(argv[4]), argv[5]
    tracer = Tracer() if trace else None
    import embdebias as ed
    with (tracer if trace else contextlib.nullcontext()):
        emb = ed.normalize(ed.load_embeddings(path, "word2vec-text"))
    setup_s = time.monotonic() - t_spawn
    setup_trace = tracer.take() if trace else None

    from reference import GROUND_TRUTH, SPECS, sweep_plans
    specs = [ed.load_bundled_spec(n) for n in SPECS]
    ground_truth = ed.load_bundled_spec(GROUND_TRUTH)
    plans = [(label, ed.DebiasPlan(
        strategy=ed.Strategy("sequential" if strategy == "seq" else strategy),
        k=K, category_order=order, frozen_subspaces=frozen))
        for label, strategy, order, frozen in sweep_plans()]

    iterations = []
    while not iterations or time.monotonic() - t_spawn < seconds:
        for traced in ((False, True) if trace else (False,)):
            with warnings.catch_warnings(record=True) as caught, \
                    (tracer if traced else contextlib.nullcontext()):
                warnings.simplefilter("always")
                t0 = time.monotonic()
                result = sweep_iteration(ed, emb, specs, ground_truth, plans, seed)
                t1 = time.monotonic()
            record = {"wall_s": t1 - t0, "traced": traced, "result": result,
                      "words_skipped": sum(issubclass(w.category, ed.errors.WordSkippedWarning)
                                           for w in caught)}
            if traced:
                taken = tracer.take()
                record["summary"] = summarize(taken["spans"])
                record["counts"] = taken["counts"]
            iterations.append(record)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = {"setup_s": setup_s}
    if setup_trace is not None:
        setup.update(summary=summarize(setup_trace["spans"]), counts=setup_trace["counts"])
    _write_json(out_path, {"setup": setup, "iterations": iterations, "peak_rss_mb": rss_mb})
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2:]))
    sys.exit(run_sweep(sys.argv[1:]))
