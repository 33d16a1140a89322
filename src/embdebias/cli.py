"""Command-line surface.

Subcommands: ``subspace``, ``debias``, ``eval-mac``, ``eval-eq``,
``validate-hypothesis``, ``report``. Options may come from a JSON config
file (``--config``); command-line flags override config values, which
override defaults. Exit codes: 0 success, 1 I/O failure or out of memory,
2 validation or linear-algebra failure, 3 numerical degeneracy when
``--strict-degenerate`` is set.

Runs that produce an output file also write ``<out>.manifest.json`` with the
resolved configuration, its hash, and all warnings, which is enough to
re-execute the run. Reports are deterministic: the same config (including
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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .compose import compose, validate_hypothesis
from .debias import DebiasPlan, Strategy, run_plan
from .embeddings import (
    EmbeddingSet,
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
from .evaluate import mac_for_category, paired_t_test
from .subspace import bias_subspace, save_subspace
from .wordsets import (
    CategorySpec,
    load_bundled_spec,
    load_category_spec,
    bundled_spec_names,
)

_STRATEGY_ALIASES = {"seq": "sequential"}

_DEFAULTS = {
    "format": None,            # None -> sniff
    "normalize": True,
    "lowercase_fallback": False,
    "double_center": False,
    "frozen_subspaces": False,
    "strict_degenerate": False,
    "seed": 0,
    "strategy": "single",
    "all_orders": False,
}


@dataclass
class RunConfig:
    """Resolved options for one run (flags > config file > defaults)."""

    command: str
    values: dict = field(default_factory=dict)

    def get(self, name, default=None):
        return self.values.get(name, default)

    def digest(self) -> str:
        payload = json.dumps({"command": self.command, **self.values},
                             sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise EmbdebiasError(f"{config_path}: not valid JSON ({exc})") from None
        if not isinstance(file_values, dict):
            raise EmbdebiasError(f"{config_path}: config must be a JSON object")
        values.update(file_values)
    for key, value in vars(args).items():
        if key in ("config", "func", "command"):
            continue
        if value is not None:
            values[key] = value
    strategy = values.get("strategy")
    if strategy in _STRATEGY_ALIASES:
        values["strategy"] = _STRATEGY_ALIASES[strategy]
    if values.get("all_orders") and values.get("order"):
        raise EmbdebiasError("--order and --all-orders are mutually exclusive")
    if values.get("debiased") and values.get("pipeline"):
        raise EmbdebiasError("--debiased and --pipeline are mutually exclusive")
    return RunConfig(command=args.command, values=values)


def _load_spec(path_or_name: str) -> CategorySpec:
    path = Path(path_or_name)
    if path.is_file():
        return load_category_spec(path)
    if path_or_name in bundled_spec_names():
        return load_bundled_spec(path_or_name)
    raise EmbdebiasError(
        f"no such spec file or bundled lexicon: {path_or_name}")


def _load_emb(cfg: RunConfig, path: str | None = None) -> EmbeddingSet:
    """Load ``path`` (default: ``--embeddings``) under the run's format and
    normalization options."""
    path = path or cfg.get("embeddings")
    if not path:
        raise EmbdebiasError("--embeddings is required")
    if not Path(path).is_file():
        raise EmbdebiasError(f"no such embedding file: {path}")
    fmt = cfg.get("format") or sniff_format(path)
    emb = load_embeddings(path, fmt)
    if cfg.get("normalize"):
        return normalize(emb)
    if not emb.normalized:
        raise EmbdebiasError(
            "input embeddings are not unit-normalized and --no-normalize was "
            "given; equalize requires unit vectors, so either drop "
            "--no-normalize or normalize the file first")
    return emb


def _specs(cfg: RunConfig) -> list[CategorySpec]:
    paths = cfg.get("specs") or cfg.get("spec") or []
    if isinstance(paths, str):
        paths = [paths]
    if not paths:
        raise EmbdebiasError("at least one category spec is required")
    return [_load_spec(p) for p in paths]


def _require_k(cfg: RunConfig) -> int:
    k = cfg.get("k")
    if k is None:
        raise EmbdebiasError(
            "--k is required (suggestion: 1 for binary categories, 2 for "
            "multi-class ones)")
    return int(k)


def _write_manifest(cfg: RunConfig, outputs: list[str], notes: list[str],
                    captured: list[str]) -> None:
    target = cfg.get("manifest")
    if not target:
        if not outputs:
            return
        target = outputs[0] + ".manifest.json"
    manifest = {
        "command": cfg.command,
        "config": {k: v for k, v in sorted(cfg.values.items())},
        "config_sha256": cfg.digest(),
        "version": __version__,
        "outputs": outputs,
        "notes": notes,
        "warnings": captured,
    }
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _emit(cfg: RunConfig, text: str) -> list[str]:
    print(text)
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        return [str(out)]
    return []


# --- subcommands -------------------------------------------------------------

def cmd_subspace(cfg: RunConfig) -> tuple[list[str], list[str]]:
    emb = _load_emb(cfg)
    specs = _specs(cfg)
    k = _require_k(cfg)
    out = cfg.get("out")
    if not out:
        raise EmbdebiasError("--out is required")
    kwargs = dict(double_center=cfg.get("double_center"),
                  lowercase_fallback=cfg.get("lowercase_fallback"))
    notes = []
    strategy = cfg.get("strategy", "single")
    if strategy in ("sum", "mean", "josec"):
        subspaces = [bias_subspace(s, emb, k, **kwargs) for s in specs]
        result = compose(strategy, subspaces)
        save_subspace(result.subspace, out)
        if result.objective_value is not None:
            print(f"objective value: {result.objective_value:.12g}")
            notes.append(f"objective_value={result.objective_value!r}")
        if result.per_category_distance is not None:
            for b, dist in zip(subspaces, result.per_category_distance):
                print(f"distance to {b.label}: {dist:.12g}")
        print(f"wrote {result.subspace.label} ({result.subspace.k} x "
              f"{result.subspace.dim}) to {out}")
        return [str(out)], notes
    if len(specs) != 1:
        raise EmbdebiasError(
            "strategy 'single' takes exactly one spec; use sum/mean/josec "
            "to compose several")
    sub = bias_subspace(specs[0], emb, k, **kwargs)
    save_subspace(sub, out)
    variances = " ".join(f"{v:.6g}" for v in sub.explained_variance)
    print(f"wrote {sub.label} ({sub.k} x {sub.dim}) to {out}; "
          f"explained variance: {variances}")
    return [str(out)], notes


def _plan_from_config(cfg: RunConfig) -> DebiasPlan:
    neutral = None
    neutral_path = cfg.get("neutral_words")
    if neutral_path:
        with open(neutral_path, encoding="utf-8") as fh:
            neutral = tuple(w for w in fh.read().split() if w)
    order = cfg.get("order")
    if isinstance(order, str):
        order = tuple(x for x in order.split(",") if x)
    return DebiasPlan(
        strategy=Strategy(cfg.get("strategy", "single")),
        k=_require_k(cfg),
        category_order=tuple(order or ()),
        neutral_words=neutral,
        frozen_subspaces=cfg.get("frozen_subspaces"),
        lowercase_fallback=cfg.get("lowercase_fallback"),
        double_center=cfg.get("double_center"),
    )


def _order_suffix(path: str, order) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + "." + "-".join(order) + p.suffix))


def cmd_debias(cfg: RunConfig) -> tuple[list[str], list[str]]:
    emb = _load_emb(cfg)
    specs = _specs(cfg)
    out = cfg.get("out")
    if not out:
        raise EmbdebiasError("--out is required")
    # output format follows the input unless given explicitly
    fmt = cfg.get("format") or sniff_format(cfg.get("embeddings"))
    plan = _plan_from_config(cfg)
    outputs, notes = [], []
    if cfg.get("all_orders"):
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
    return [str(out)], notes


def _write_f_table(path, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "target", "attribute_set", "f"])
        for report in reports:
            for i, word in enumerate(report.targets):
                for j in range(report.table.shape[1]):
                    writer.writerow([report.category, word, j,
                                     "%.12g" % report.table[i, j]])


def cmd_eval_mac(cfg: RunConfig) -> tuple[list[str], list[str]]:
    emb = _load_emb(cfg)
    specs = _specs(cfg)
    lf = cfg.get("lowercase_fallback")
    reports = [mac_for_category(s, emb, lf) for s in specs]
    baseline_reports = None
    if cfg.get("baseline"):
        base = _load_emb(cfg, cfg.get("baseline"))
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
    outputs = _emit(cfg, "\n".join(lines))
    table_path = cfg.get("f_table")
    if table_path:
        _write_f_table(table_path, reports)
        outputs.append(str(table_path))
    return outputs, []


def cmd_eval_eq(cfg: RunConfig) -> tuple[list[str], list[str]]:
    from .evaluate import GroupOutcome, equality_differences

    counts_path = cfg.get("counts")
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
    outputs = _emit(cfg, text)
    return outputs, []


def _hypothesis(cfg: RunConfig, specs, emb) -> tuple[str, list[str]]:
    """Run ``validate_hypothesis`` against ``--ground-truth`` and write
    ``--projection-csv``; returns the summary and the paths written."""
    ground_truth = _load_spec(cfg.get("ground_truth"))
    report = validate_hypothesis(
        specs, ground_truth, emb, _require_k(cfg), seed=int(cfg.get("seed", 0)),
        lowercase_fallback=cfg.get("lowercase_fallback"),
        double_center=cfg.get("double_center"))
    proj = cfg.get("projection_csv")
    if not proj:
        return report.summary(), []
    with open(proj, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "component_index", "x", "y", "z"])
        for label, idx, x, y, z in report.projection_rows:
            writer.writerow([label, idx, "%.12g" % x, "%.12g" % y, "%.12g" % z])
    return report.summary(), [str(proj)]


def cmd_validate_hypothesis(cfg: RunConfig) -> tuple[list[str], list[str]]:
    emb = _load_emb(cfg)
    specs = _specs(cfg)
    if not cfg.get("ground_truth"):
        raise EmbdebiasError("--ground-truth spec is required")
    summary, written = _hypothesis(cfg, specs, emb)
    return _emit(cfg, summary) + written, []


def _mac_row(label, reports) -> str:
    total = sum(r.mac for r in reports)
    cells = " ".join(f"{r.mac:>9.6f}" for r in reports)
    return f"{label:<24} {cells} {total:>9.6f}"


def _mac_record(reports) -> dict:
    record = {r.category: r.mac for r in reports}
    record["Total"] = sum(r.mac for r in reports)
    return record


def cmd_report(cfg: RunConfig) -> tuple[list[str], list[str]]:
    emb = _load_emb(cfg)
    specs = _specs(cfg)
    lf = cfg.get("lowercase_fallback")
    notes = []
    lines = []
    records: dict[str, dict] = {}
    header = f"{'strategy':<24} " + " ".join(f"{s.name:>9}" for s in specs) + "     Total"
    lines.append(header)
    biased = [mac_for_category(s, emb, lf) for s in specs]
    lines.append(_mac_row("biased", biased))
    records["biased"] = _mac_record(biased)

    if cfg.get("debiased"):
        debiased_emb = _load_emb(cfg, cfg.get("debiased"))
        debiased = [mac_for_category(s, debiased_emb, lf) for s in specs]
        lines.append(_mac_row("debiased", debiased))
        records["debiased"] = _mac_record(debiased)
        lines.append("")
        lines.append("category    delta-MAC   paired-t        p  df")
        for before, after in zip(biased, debiased):
            result = paired_t_test(before.table.ravel(), after.table.ravel())
            lines.append(f"{before.category:<12} {after.mac - before.mac:>+8.6f} "
                         f"{result.t:>9.4f} {result.p:>8.4g} {result.df:>3d}")
    elif cfg.get("pipeline"):
        k = _require_k(cfg)
        names = [s.name for s in specs]
        # 2-letter abbreviations unless they collide
        short = {n: n[:2] for n in names}
        if len(set(short.values())) != len(names):
            short = {n: n for n in names}
        base = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=k, lowercase_fallback=lf,
                          double_center=cfg.get("double_center"),
                          frozen_subspaces=cfg.get("frozen_subspaces"))
        strategies = [("hard_seq(" + ">".join(short[o] for o in order) + ")",
                       replace(base, category_order=order))
                      for order in itertools.permutations(names)]
        strategies += [(name, replace(base, strategy=Strategy(name)))
                       for name in ("sum", "mean", "josec")]
        # Under the default neutral rule every row outside the lexicon is
        # neutralized on its own and never read again: subspaces and equalize
        # read the defining and equality rows, MAC the target and attribute
        # rows. So the plans run on the lexicon rows only.
        lexicon = {w for s in specs for w in s.all_words()}
        if lf:
            lexicon |= {w.lower() for w in lexicon}
        closure = emb.subset(lexicon)
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
    if cfg.get("ground_truth"):
        summary, written = _hypothesis(cfg, specs, emb)
        lines.append("")
        lines.append(summary)

    outputs = _emit(cfg, "\n".join(lines)) + written
    json_path = cfg.get("json")
    if json_path:
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(str(json_path))
    return outputs, notes


# --- parser ------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--embeddings", help="embedding file path")
    p.add_argument("--format", choices=["word2vec-text", "glove-text"],
                   help="embedding format (default: sniffed from the file)")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="unit-normalize rows after loading (default: on)")
    p.add_argument("--lowercase-fallback", dest="lowercase_fallback",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="fall back to lowercase when resolving words")
    p.add_argument("--double-center", dest="double_center",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="also remove the global row mean before the subspace "
                        "decomposition")
    p.add_argument("--strict-degenerate", dest="strict_degenerate",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="treat rank deficiency / tied optima as fatal (exit 3)")
    p.add_argument("--seed", type=int, help="random seed (default: 0)")
    p.add_argument("--out", help="output path")
    p.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embdebias",
        description="Identify, compose, and remove bias subspaces in static "
                    "word embeddings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subspace", help="build and serialize bias subspaces")
    _add_common(p)
    p.add_argument("--spec", dest="spec", nargs="+",
                   help="category spec file(s) or bundled lexicon name(s)")
    p.add_argument("--k", type=int, help="number of components per category")
    p.add_argument("--strategy", choices=["single", "sum", "mean", "josec"],
                   help="compose multiple categories (default: single)")
    p.set_defaults(func=cmd_subspace)

    p = sub.add_parser("debias", help="remove bias components from embeddings")
    _add_common(p)
    p.add_argument("--specs", dest="specs", nargs="+",
                   help="category spec file(s) or bundled lexicon name(s)")
    p.add_argument("--strategy",
                   choices=["single", "seq", "sequential", "sum", "mean", "josec"])
    p.add_argument("--k", type=int, help="number of components per category")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--order", help="comma-separated category order (seq)")
    group.add_argument("--all-orders", dest="all_orders", action="store_const",
                       const=True, help="run every category order (seq)")
    p.add_argument("--frozen-subspaces", dest="frozen_subspaces",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="build each sequential step's subspace on the input "
                        "instead of on the output of the steps before it; the "
                        "two coincide unless an earlier step equalizes a later "
                        "category's defining words or --neutral-words names them")
    p.add_argument("--neutral-words", dest="neutral_words",
                   help="file of words to neutralize (default: all words not "
                        "in any defining or equality set)")
    p.set_defaults(func=cmd_debias)

    p = sub.add_parser("eval-mac", help="MAC per category (optionally vs a baseline)")
    _add_common(p)
    p.add_argument("--specs", dest="specs", nargs="+")
    p.add_argument("--baseline", help="baseline embedding file for deltas")
    p.add_argument("--f-table", dest="f_table",
                   help="CSV path for the per-(target, attribute-set) table")
    p.set_defaults(func=cmd_eval_mac)

    p = sub.add_parser("eval-eq", help="FPED/FNED from a confusion-count CSV")
    _add_common(p)
    p.add_argument("--counts", help="CSV with group,tp,fp,tn,fn rows plus an "
                                    "'overall' row")
    p.set_defaults(func=cmd_eval_eq)

    p = sub.add_parser("validate-hypothesis",
                       help="compare composed directions against a ground-truth "
                            "intersectional subspace")
    _add_common(p)
    p.add_argument("--specs", dest="specs", nargs="+")
    p.add_argument("--ground-truth", dest="ground_truth",
                   help="spec file with intersectional defining sets")
    p.add_argument("--k", type=int)
    p.add_argument("--projection-csv", dest="projection_csv",
                   help="CSV path for the 3-D component projection")
    p.set_defaults(func=cmd_validate_hypothesis)

    p = sub.add_parser("report", help="consolidated MAC / significance report")
    _add_common(p)
    p.add_argument("--specs", dest="specs", nargs="+")
    p.add_argument("--debiased", help="debiased embedding file to compare against")
    p.add_argument("--pipeline", action="store_const", const=True,
                   help="run every strategy (sequential all orders, sum, mean, "
                        "josec) on the lexicon rows and report MACs")
    p.add_argument("--k", type=int)
    p.add_argument("--frozen-subspaces", dest="frozen_subspaces",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--ground-truth", dest="ground_truth",
                   help="add the hypothesis-validation section")
    p.add_argument("--projection-csv", dest="projection_csv")
    p.add_argument("--json", dest="json",
                   help="also write the MAC table as full-precision JSON")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (EmbdebiasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        try:
            outputs, notes = args.func(cfg)
        except (EmbdebiasError, ValueError, np.linalg.LinAlgError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError:
            print(f"error: out of memory in '{cfg.command}'; the embedding "
                  "matrix and its debiased copies must fit in RAM",
                  file=sys.stderr)
            return 1
    messages = [f"{w.category.__name__}: {w.message}" for w in captured]
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    try:
        _write_manifest(cfg, outputs, notes, messages)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.get("strict_degenerate") and any(
            issubclass(w.category, (RankDeficiencyWarning, DegenerateTieWarning))
            for w in captured):
        print("error: numerical degeneracy treated as fatal "
              "(--strict-degenerate)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
