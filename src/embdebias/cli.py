"""Command-line surface.

Subcommands: ``subspace``, ``debias``, ``eval-mac``, ``eval-eq``,
``validate-hypothesis``, ``report``. Each option is declared once, in a group
named for the code that reads it (common, embedding input, subspace
construction, hypothesis), and a subcommand's parser takes only the groups
and options its code reads, so an option it would ignore exits 2. A JSON
``--config`` maps an option's ``dest`` (``lowercase_fallback``) to a value of
its flag's JSON type, checked by that parser; flags override config values,
which override defaults. Exit codes: 0 success, 1 I/O failure or out of
memory, 2 validation (a bad config key or value included) or linear-algebra
failure, 3 numerical degeneracy when ``--strict-degenerate`` is set.

Runs that produce an output file also write ``<out>.manifest.json`` with the
subcommand's set options, their hash and all warnings; its ``config`` re-runs
as ``--config``. Reports are deterministic: the same config (including
``--seed``) produces byte-identical output on the same machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
import warnings
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .compose import compose, validate_hypothesis
from .debias import DebiasPlan, Strategy, run_plan
from .embeddings import (
    FIELD,
    EmbeddingSet,
    data_lines,
    load_embeddings,
    normalize,
    save_embeddings,
    sniff_format,
)
from .errors import (
    DegenerateTieWarning,
    EmbdebiasError,
    RankDeficiencyWarning,
)
from .evaluate import (GroupOutcome, equality_differences, mac_for_category,
                       paired_t_test)
from .subspace import bias_subspace, save_subspace
from .wordsets import (
    CategorySpec,
    load_bundled_spec,
    load_category_spec,
    bundled_spec_names,
    lexicon_words,
)


def _config_value(action: argparse.Action, key: str, value):
    """``value`` checked and converted as ``action``'s flag would be."""
    if action.nargs == 0:
        kind, ok = "true or false", isinstance(value, bool)
    elif action.nargs == "+":
        kind = "a non-empty list of strings"
        ok = (isinstance(value, list) and bool(value)
              and all(isinstance(v, str) for v in value))
    elif action.type is int:
        kind = "an integer"
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise EmbdebiasError(
            f"config key {key!r} takes {kind}, got {json.dumps(value)}")
    if action.nargs == 0:
        return value
    items = [action.type(v) if action.type else v
             for v in (value if action.nargs == "+" else [value])]
    for v in items:
        if action.choices is not None and v not in action.choices:
            raise EmbdebiasError(f"config key {key!r}: invalid choice {v!r} "
                                 f"(choose from {', '.join(action.choices)})")
    return items if action.nargs == "+" else items[0]


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    """The JSON object in ``path``; each key is the ``dest`` of one of
    ``parser``'s options and its value is checked as that flag's would be."""
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EmbdebiasError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(values, dict):
        raise EmbdebiasError(f"{path}: config must be a JSON object")
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key in values:
        if key not in actions:
            raise EmbdebiasError(
                f"config key {key!r} is not an option of '{parser.prog}'")
    return {key: _config_value(actions[key], key, value)
            for key, value in values.items()}


def _load_spec(path_or_name: str) -> CategorySpec:
    path = Path(path_or_name)
    if path.is_file():
        return load_category_spec(path)
    if path_or_name in bundled_spec_names():
        return load_bundled_spec(path_or_name)
    raise EmbdebiasError(
        f"no such spec file or bundled lexicon: {path_or_name}")


def _load_emb(args: Namespace, path: str | None = None) -> EmbeddingSet:
    """Load ``path`` (default: ``--embeddings``) under the run's format and
    normalization options."""
    path = path or args.embeddings
    if not path:
        raise EmbdebiasError("--embeddings is required")
    if not Path(path).is_file():
        raise EmbdebiasError(f"no such embedding file: {path}")
    fmt = args.format or sniff_format(path)
    emb = load_embeddings(path, fmt)
    if args.normalize:
        return normalize(emb)
    if not emb.normalized:
        raise EmbdebiasError(
            "input embeddings are not unit-normalized and --no-normalize was "
            "given; equalize requires unit vectors, so either drop "
            "--no-normalize or normalize the file first")
    return emb


def _specs(args: Namespace) -> list[CategorySpec]:
    paths = getattr(args, "specs", None) or getattr(args, "spec", None)
    if not paths:
        raise EmbdebiasError("at least one category spec is required")
    return [_load_spec(p) for p in paths]


def _require_k(args: Namespace) -> int:
    if args.k is None:
        raise EmbdebiasError(
            "--k is required (suggestion: 1 for binary categories, 2 for "
            "multi-class ones)")
    return args.k


def _write_manifest(args: Namespace, outputs: list[str], notes: list[str],
                    captured: list[str]) -> None:
    if not (args.manifest or outputs):
        return
    target = args.manifest or outputs[0] + ".manifest.json"
    # the subcommand's own options that are set; --config re-runs them
    config = {k: v for k, v in sorted(vars(args).items())
              if v is not None and k not in ("config", "func", "command")}
    digest = json.dumps({"command": args.command, **config}, sort_keys=True)
    manifest = {
        "command": args.command,
        "config": config,
        "config_sha256": hashlib.sha256(digest.encode()).hexdigest(),
        "version": __version__,
        "outputs": outputs,
        "notes": notes,
        "warnings": captured,
    }
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args: Namespace, text: str) -> list[str]:
    print(text)
    if not args.out:
        return []
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return [args.out]


# --- subcommands -------------------------------------------------------------

def cmd_subspace(args: Namespace) -> tuple[list[str], list[str]]:
    emb = _load_emb(args)
    specs = _specs(args)
    k = _require_k(args)
    out = args.out
    if not out:
        raise EmbdebiasError("--out is required")
    kwargs = dict(double_center=args.double_center,
                  lowercase_fallback=args.lowercase_fallback)
    notes = []
    if args.strategy in ("sum", "mean", "josec"):
        subspaces = [bias_subspace(s, emb, k, **kwargs) for s in specs]
        result = compose(args.strategy, subspaces)
        save_subspace(result.subspace, out)
        if result.objective_value is not None:
            print(f"objective value: {result.objective_value:.12g}")
            notes.append(f"objective_value={result.objective_value!r}")
        if result.per_category_distance is not None:
            for b, dist in zip(subspaces, result.per_category_distance):
                print(f"distance to {b.label}: {dist:.12g}")
        print(f"wrote {result.subspace.label} ({result.subspace.k} x "
              f"{result.subspace.dim}) to {out}")
        return [out], notes
    if len(specs) != 1:
        raise EmbdebiasError(
            "strategy 'single' takes exactly one spec; use sum/mean/josec "
            "to compose several")
    sub = bias_subspace(specs[0], emb, k, **kwargs)
    save_subspace(sub, out)
    variances = " ".join(f"{v:.6g}" for v in sub.explained_variance)
    print(f"wrote {sub.label} ({sub.k} x {sub.dim}) to {out}; "
          f"explained variance: {variances}")
    return [out], notes


def _plan_from_config(args: Namespace) -> DebiasPlan:
    neutral = None
    if args.neutral_words:
        # split as the embedding loader splits, so "new\u00a0york" stays whole
        with open(args.neutral_words, encoding="utf-8") as fh:
            neutral = tuple(w for _, line in data_lines(fh.read())
                            for w in FIELD.findall(line))
    return DebiasPlan(
        strategy=Strategy(args.strategy),
        k=_require_k(args),
        category_order=tuple(x for x in (args.order or "").split(",") if x),
        neutral_words=neutral,
        frozen_subspaces=args.frozen_subspaces,
        lowercase_fallback=args.lowercase_fallback,
        double_center=args.double_center,
    )


def _order_suffix(path: str, order) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + "." + "-".join(order) + p.suffix))


def cmd_debias(args: Namespace) -> tuple[list[str], list[str]]:
    emb = _load_emb(args)
    specs = _specs(args)
    out = args.out
    if not out:
        raise EmbdebiasError("--out is required")
    # output format follows the input unless given explicitly
    fmt = args.format or sniff_format(args.embeddings)
    plan = _plan_from_config(args)
    outputs, notes = [], []
    if args.all_orders:
        if plan.strategy is not Strategy.SEQUENTIAL:
            raise EmbdebiasError("--all-orders requires --strategy seq")
        for order in itertools.permutations([s.name for s in specs]):
            result = run_plan(emb, specs, replace(plan, category_order=order))
            path = _order_suffix(out, order)
            save_embeddings(result, path, fmt)
            outputs.append(path)
            notes.append("order=" + ",".join(order))
            print(f"wrote {path}")
        return outputs, notes
    if plan.strategy is Strategy.SEQUENTIAL and not plan.category_order:
        raise EmbdebiasError("--strategy seq requires --order or --all-orders")
    result = run_plan(emb, specs, plan)
    save_embeddings(result, out, fmt)
    print(f"wrote {out}")
    notes.append(f"strategy={plan.strategy.value}")
    return [out], notes


def _write_f_table(path, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "target", "attribute_set", "f"])
        for report in reports:
            for i, word in enumerate(report.targets):
                for j in range(report.table.shape[1]):
                    writer.writerow([report.category, word, j,
                                     "%.12g" % report.table[i, j]])


def cmd_eval_mac(args: Namespace) -> tuple[list[str], list[str]]:
    emb = _load_emb(args)
    specs = _specs(args)
    lf = args.lowercase_fallback
    reports = [mac_for_category(s, emb, lf) for s in specs]
    baseline_reports = None
    if args.baseline:
        base = _load_emb(args, args.baseline)
        baseline_reports = [mac_for_category(s, base, lf) for s in specs]
    lines = []
    header = "category        MAC" + ("      delta" if baseline_reports else "")
    lines.append(header)
    total = 0.0
    base_total = 0.0
    for i, report in enumerate(reports):
        row = f"{report.category:<12} {report.mac:>9.6f}"
        total += report.mac
        if baseline_reports:
            delta = report.mac - baseline_reports[i].mac
            base_total += baseline_reports[i].mac
            row += f" {delta:>+10.6f}"
        lines.append(row)
    row = f"{'Total':<12} {total:>9.6f}"
    if baseline_reports:
        row += f" {total - base_total:>+10.6f}"
    lines.append(row)
    outputs = _emit(args, "\n".join(lines))
    if args.f_table:
        _write_f_table(args.f_table, reports)
        outputs.append(args.f_table)
    return outputs, []


def cmd_eval_eq(args: Namespace) -> tuple[list[str], list[str]]:
    counts_path = args.counts
    if not counts_path:
        raise EmbdebiasError("--counts CSV is required")
    if not Path(counts_path).is_file():
        raise EmbdebiasError(f"no such counts file: {counts_path}")
    groups, overall = [], None
    with open(counts_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                outcome = GroupOutcome(
                    label=row["group"], tp=int(row["tp"]), fp=int(row["fp"]),
                    tn=int(row["tn"]), fn=int(row["fn"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise EmbdebiasError(
                    f"{counts_path}: expected columns group,tp,fp,tn,fn ({exc})"
                ) from None
            if outcome.label.lower() == "overall":
                overall = outcome
            else:
                groups.append(outcome)
    if overall is None:
        raise EmbdebiasError(f"{counts_path}: missing the 'overall' row")
    result = equality_differences(groups, overall)
    text = (f"FPED  {result.fped:.6f}\nFNED  {result.fned:.6f}\n"
            f"Total {result.fped + result.fned:.6f}")
    return _emit(args, text), []


def _hypothesis(args: Namespace, specs, emb) -> tuple[str, list[str]]:
    """Run ``validate_hypothesis`` against ``--ground-truth`` and write
    ``--projection-csv``; returns the summary and the paths written."""
    ground_truth = _load_spec(args.ground_truth)
    report = validate_hypothesis(
        specs, ground_truth, emb, _require_k(args), seed=args.seed,
        lowercase_fallback=args.lowercase_fallback,
        double_center=args.double_center)
    proj = args.projection_csv
    if not proj:
        return report.summary(), []
    with open(proj, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "component_index", "x", "y", "z"])
        for label, idx, x, y, z in report.projection_rows:
            writer.writerow([label, idx, "%.12g" % x, "%.12g" % y, "%.12g" % z])
    return report.summary(), [proj]


def cmd_validate_hypothesis(args: Namespace) -> tuple[list[str], list[str]]:
    emb = _load_emb(args)
    specs = _specs(args)
    if not args.ground_truth:
        raise EmbdebiasError("--ground-truth spec is required")
    summary, written = _hypothesis(args, specs, emb)
    return _emit(args, summary) + written, []


def _mac_row(label, reports) -> str:
    total = sum(r.mac for r in reports)
    cells = " ".join(f"{r.mac:>9.6f}" for r in reports)
    return f"{label:<24} {cells} {total:>9.6f}"


def _mac_record(reports) -> dict:
    record = {r.category: r.mac for r in reports}
    record["Total"] = sum(r.mac for r in reports)
    return record


def cmd_report(args: Namespace) -> tuple[list[str], list[str]]:
    emb = _load_emb(args)
    specs = _specs(args)
    lf = args.lowercase_fallback
    notes = []
    lines = []
    records: dict[str, dict] = {}
    header = f"{'strategy':<24} " + " ".join(f"{s.name:>9}" for s in specs) + "     Total"
    lines.append(header)
    biased = [mac_for_category(s, emb, lf) for s in specs]
    lines.append(_mac_row("biased", biased))
    records["biased"] = _mac_record(biased)

    if args.debiased:
        debiased_emb = _load_emb(args, args.debiased)
        debiased = [mac_for_category(s, debiased_emb, lf) for s in specs]
        lines.append(_mac_row("debiased", debiased))
        records["debiased"] = _mac_record(debiased)
        lines.append("")
        lines.append("category    delta-MAC   paired-t        p  df")
        for before, after in zip(biased, debiased):
            result = paired_t_test(before.table.ravel(), after.table.ravel())
            lines.append(f"{before.category:<12} {after.mac - before.mac:>+8.6f} "
                         f"{result.t:>9.4f} {result.p:>8.4g} {result.df:>3d}")
    elif args.pipeline:
        k = _require_k(args)
        names = [s.name for s in specs]
        # 2-letter abbreviations unless they collide
        short = {n: n[:2] for n in names}
        if len(set(short.values())) != len(names):
            short = {n: n for n in names}
        base = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=k, lowercase_fallback=lf,
                          double_center=args.double_center,
                          frozen_subspaces=args.frozen_subspaces)
        strategies = [("hard_seq(" + ">".join(short[o] for o in order) + ")",
                       replace(base, category_order=order))
                      for order in itertools.permutations(names)]
        strategies += [(name, replace(base, strategy=Strategy(name)))
                       for name in ("sum", "mean", "josec")]
        # Only the lexicon rows are read again after debiasing (MAC reads
        # the target and attribute rows), so the plans run on those rows and
        # each run_plan is its fit alone.
        closure = emb.subset(lexicon_words(specs, lf))
        notes.append(f"debiased_rows={len(closure)}/{len(emb)}")
        best_label, best_total = None, -np.inf
        for label, plan in strategies:
            debiased_emb = run_plan(closure, specs, plan)
            reports = [mac_for_category(s, debiased_emb, lf) for s in specs]
            lines.append(_mac_row(label, reports))
            records[label] = _mac_record(reports)
            total = sum(r.mac for r in reports)
            if label.startswith("hard_seq") and total > best_total:
                best_label, best_total = label, total
        if best_label is not None:
            lines.append("")
            lines.append(f"best sequential order: {best_label} "
                         f"(Total {best_total:.6f})")
            notes.append(f"best_sequential={best_label}")

    written = []
    if args.ground_truth:
        summary, written = _hypothesis(args, specs, emb)
        lines.append("")
        lines.append(summary)

    outputs = _emit(args, "\n".join(lines)) + written
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(args.json)
    return outputs, notes


# --- parser ------------------------------------------------------------------

def _strategy(name: str) -> str:
    return "sequential" if name == "seq" else name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embdebias",
        description="Identify, compose, and remove bias subspaces in static "
                    "word embeddings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    on_off = argparse.BooleanOptionalAction

    # the option groups of the module docstring, as parent parsers
    common, embedding, construction, hypothesis, specs, frozen = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="output path")
    common.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")

    embedding.add_argument("--embeddings", help="embedding file path")
    embedding.add_argument("--format", choices=["word2vec-text", "glove-text"],
                           help="embedding format (default: sniffed from the file)")
    embedding.add_argument("--normalize", action=on_off, default=True,
                           help="unit-normalize rows after loading "
                                "(default: %(default)s)")
    embedding.add_argument("--lowercase-fallback", action=on_off, default=False,
                           help="fall back to lowercase when resolving words")

    construction.add_argument("--k", type=int, help="number of components per category")
    construction.add_argument("--double-center", action=on_off, default=False,
                              help="also remove the global row mean before the "
                                   "subspace decomposition")
    construction.add_argument("--strict-degenerate", action=on_off, default=False,
                              help="treat rank deficiency / tied optima as "
                                   "fatal (exit 3)")

    hypothesis.add_argument("--ground-truth",
                            help="spec file with intersectional defining sets")
    hypothesis.add_argument("--projection-csv",
                            help="CSV path for the 3-D component projection")
    hypothesis.add_argument("--seed", type=int, default=0,
                            help="seed of the random-direction baseline "
                                 "(default: %(default)s)")

    specs.add_argument("--specs", nargs="+",
                       help="category spec file(s) or bundled lexicon name(s)")
    frozen.add_argument("--frozen-subspaces", action=on_off, default=False,
                        help="build each sequential step's subspace on the input "
                             "instead of on the output of the steps before it; the "
                             "two coincide unless an earlier step equalizes a later "
                             "category's defining words or a neutral list names them")

    p = sub.add_parser("subspace", help="build and serialize bias subspaces",
                       parents=[common, embedding, construction])
    p.add_argument("--spec", nargs="+",
                   help="category spec file(s) or bundled lexicon name(s)")
    p.add_argument("--strategy", choices=["single", "sum", "mean", "josec"],
                   default="single",
                   help="compose multiple categories (default: %(default)s)")
    p.set_defaults(func=cmd_subspace)

    p = sub.add_parser("debias", help="remove bias components from embeddings",
                       parents=[common, embedding, construction, specs, frozen])
    p.add_argument("--strategy", type=_strategy, default="single",
                   choices=["single", "sequential", "sum", "mean", "josec"],
                   help="seq is short for sequential (default: %(default)s)")
    p.add_argument("--order", help="comma-separated category order (seq)")
    p.add_argument("--all-orders", action="store_true",
                   help="run every category order (seq)")
    p.add_argument("--neutral-words",
                   help="file of words to neutralize, separated by spaces, tabs "
                        "or line breaks (default: all words not in any "
                        "defining or equality set)")
    p.set_defaults(func=cmd_debias)

    p = sub.add_parser("eval-mac", help="MAC per category (optionally vs a baseline)",
                       parents=[common, embedding, specs])
    p.add_argument("--baseline", help="baseline embedding file for deltas")
    p.add_argument("--f-table",
                   help="CSV path for the per-(target, attribute-set) table")
    p.set_defaults(func=cmd_eval_mac)

    p = sub.add_parser("eval-eq", help="FPED/FNED from a confusion-count CSV",
                       parents=[common])
    p.add_argument("--counts", help="CSV with group,tp,fp,tn,fn rows plus an "
                                    "'overall' row")
    p.set_defaults(func=cmd_eval_eq)

    p = sub.add_parser("validate-hypothesis",
                       help="compare composed directions against a ground-truth "
                            "intersectional subspace",
                       parents=[common, embedding, construction, hypothesis, specs])
    p.set_defaults(func=cmd_validate_hypothesis)

    p = sub.add_parser("report", help="consolidated MAC / significance report",
                       parents=[common, embedding, construction, hypothesis,
                                specs, frozen])
    p.add_argument("--debiased", help="debiased embedding file to compare against")
    p.add_argument("--pipeline", action="store_true",
                   help="run every strategy (sequential all orders, sum, mean, "
                        "josec) on the lexicon rows and report MACs")
    p.add_argument("--json", help="also write the MAC table as full-precision JSON")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # checked config values become the subcommand's defaults, so a
            # second parse gives flags > config > defaults
            command = next(a for a in parser._actions if isinstance(
                a, argparse._SubParsersAction)).choices[args.command]
            command.set_defaults(**_read_config(command, args.config))
            args = parser.parse_args(argv)
        if getattr(args, "order", None) and getattr(args, "all_orders", False):
            raise EmbdebiasError("--order and --all-orders are mutually exclusive")
        if getattr(args, "debiased", None) and getattr(args, "pipeline", False):
            raise EmbdebiasError("--debiased and --pipeline are mutually exclusive")
    except (EmbdebiasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        try:
            outputs, notes = args.func(args)
        except (EmbdebiasError, ValueError, np.linalg.LinAlgError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError:
            print(f"error: out of memory in '{args.command}'; the embedding "
                  "matrix and its debiased copies must fit in RAM",
                  file=sys.stderr)
            return 1
    messages = [f"{w.category.__name__}: {w.message}" for w in captured]
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    try:
        _write_manifest(args, outputs, notes, messages)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "strict_degenerate", False) and any(
            issubclass(w.category, (RankDeficiencyWarning, DegenerateTieWarning))
            for w in captured):
        print("error: numerical degeneracy treated as fatal "
              "(--strict-degenerate)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
