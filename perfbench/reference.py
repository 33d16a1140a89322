"""Independent numpy reference for the benchmark's output checks.

Nothing here imports ``embdebias``: the lexicons are read as plain JSON and
every step is re-derived from the documented math.

* Subspaces come from an eigendecomposition of the small Gram matrix of the
  centered defining rows instead of an SVD, with the package's documented
  sign convention (largest-magnitude coordinate positive).
* Neutralize, equalize, SUM/MEAN/intersection composition, MAC and the
  paired t-test follow the formulas in the package docstrings; the t-test
  p-value is a numerical integral of the Student-t density.

Under the default neutral rule every row is debiased on its own, and
subspaces and equalize read only defining and equality rows. The reference
therefore works on a small subset of rows (the planted lexicon plus any
sampled neutral rows) and still reproduces those rows of a full run.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

#: Residual norm below which a neutral row is left unchanged.
RESIDUAL_TOL = 1e-10
#: Absolute tolerance for every compared MAC, similarity, t statistic and row.
TOL = 1e-9
#: Absolute tolerance for two-sided p-values (quadrature, not a closed form).
P_TOL = 1e-8

SPECS = ("gender", "race", "religion")
GROUND_TRUTH = "race_gender_intersectional"
SET_FIELDS = ("defining_sets", "equality_sets", "target_words", "attribute_sets")


def load_lexicons(src: Path) -> dict:
    """Bundled lexicons by name, read straight from the package data files."""
    data = Path(src) / "embdebias" / "data"
    out = {}
    for name in SPECS + (GROUND_TRUTH,):
        with open(data / f"{name}.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        for key in SET_FIELDS:
            spec.setdefault(key, [])
        out[name] = spec
    return out


def lexicon_words(lexicons: dict) -> list[str]:
    """Every word of every lexicon, first occurrence first."""
    seen, words = set(), []
    for spec in lexicons.values():
        for key in SET_FIELDS:
            for group in spec[key]:
                for w in group:
                    if w not in seen:
                        seen.add(w)
                        words.append(w)
    return words


class Rows:
    """A subset of an embedding set: words and their (unit) vectors."""

    def __init__(self, words, matrix):
        self.words = list(words)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.index = {w: i for i, w in enumerate(self.words)}

    def resolve(self, group, dedupe=True):
        out, seen = [], set()
        for w in group:
            if w in self.index and not (dedupe and w in seen):
                seen.add(w)
                out.append(w)
        return out

    def take(self, group):
        return self.matrix[[self.index[w] for w in group]]

    def replace(self, matrix):
        return Rows(self.words, matrix)


def unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1)[:, None]


def _fix_signs(components):
    out = components.copy()
    for row in out:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return out


def _top_right_vectors(m, k):
    """Top-k right singular vectors of ``m`` via the eigenvectors of m m^T."""
    vals, vecs = np.linalg.eigh(m @ m.T)
    order = np.argsort(vals)[::-1][:k]
    comps = (m.T @ vecs[:, order]).T / np.sqrt(vals[order])[:, None]
    comps /= np.linalg.norm(comps, axis=1)[:, None]
    return _fix_signs(comps)


def subspace(spec, rows: Rows, k):
    """(k, d) bias directions of one category."""
    blocks = []
    for group in spec["defining_sets"]:
        v = rows.take(rows.resolve(group))
        blocks.append(v - v.mean(axis=0))
    return _top_right_vectors(np.vstack(blocks), k)


def compose(strategy, subs):
    if strategy in ("sum", "mean"):
        total = np.sum(subs, axis=0)
        if strategy == "mean":
            total = total / len(subs)
        return total / np.linalg.norm(total, axis=1)[:, None]
    return _top_right_vectors(np.vstack(subs), 1)


def _project(x, basis):
    return (x @ basis.T) @ basis


def _equalize(group, basis, rows: Rows):
    """New vectors for one equality set, or None when the set is skipped."""
    words = rows.resolve(group, dedupe=False)
    if len(words) < 2:
        return None
    vectors = rows.take(words)
    mu = vectors.mean(axis=0)
    mu_b = _project(mu, basis)
    nu = mu - mu_b
    radicand = 1.0 - float(nu @ nu)
    if radicand < -1e-9:
        return None
    scale = math.sqrt(max(radicand, 0.0))
    out = {}
    for word, w in zip(words, vectors):
        dev = _project(w, basis) - mu_b
        norm = np.linalg.norm(dev)
        if norm <= RESIDUAL_TOL:
            return None
        out[word] = nu + scale * dev / norm
    return out


def hard_debias(rows: Rows, basis, neutral: set, equality_sets) -> Rows:
    matrix = rows.matrix.copy()
    idx = [i for i, w in enumerate(rows.words) if w in neutral]
    if idx:
        block = matrix[idx]
        residual = block - _project(block, basis)
        norms = np.linalg.norm(residual, axis=1)
        keep = norms <= RESIDUAL_TOL
        residual[keep] = block[keep]
        norms[keep] = 1.0
        matrix[idx] = residual / norms[:, None]
    for group in equality_sets:
        updated = _equalize(group, basis, rows)
        for word, vec in (updated or {}).items():
            matrix[rows.index[word]] = vec
    return rows.replace(matrix)


def neutral_words(rows: Rows, specs) -> set:
    excluded = {w for s in specs for key in ("defining_sets", "equality_sets")
                for group in s[key] for w in group}
    return {w for w in rows.words if w not in excluded}


def run_plan(rows: Rows, specs, strategy, k, order=(), frozen=False) -> Rows:
    """Debias ``rows`` with 'seq' (in ``order``), 'sum', 'mean' or 'josec'."""
    neutral = neutral_words(rows, specs)
    if strategy == "seq":
        by_name = {s["name"]: s for s in specs}
        fixed = {n: subspace(by_name[n], rows, k) for n in order} if frozen else {}
        current = rows
        for name in order:
            basis = fixed[name] if frozen else subspace(by_name[name], current, k)
            current = hard_debias(current, basis, neutral,
                                  by_name[name]["equality_sets"])
        return current
    basis = compose(strategy, [subspace(s, rows, k) for s in specs])
    groups = [g for s in specs for g in s["equality_sets"]]
    return hard_debias(rows, basis, neutral, groups)


def mac_table(spec, rows: Rows):
    targets = rows.take(rows.resolve([w for g in spec["target_words"] for w in g]))
    t_unit = unit_rows(targets)
    columns = []
    for group in spec["attribute_sets"]:
        words = rows.resolve(group)
        if words:
            cos = t_unit @ unit_rows(rows.take(words)).T
            columns.append((1.0 - cos).mean(axis=1))
    return np.column_stack(columns)


def macs(specs, rows: Rows) -> list[float]:
    return [float(mac_table(s, rows).mean()) for s in specs]


def _t_two_sided_p(t, df):
    """P(|T| >= |t|) by Gauss-Legendre quadrature of the Student-t density
    after mapping [|t|, inf) onto [0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    u = 0.5 * (nodes + 1.0)
    x = abs(t) + u / (1.0 - u)
    log_c = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
             - 0.5 * math.log(df * math.pi))
    density = np.exp(log_c - (df + 1) / 2 * np.log1p(x * x / df))
    return float(2.0 * 0.5 * np.sum(weights * density / (1.0 - u) ** 2))


def paired_t(before, after):
    diff = np.ravel(after) - np.ravel(before)
    n = diff.size
    t = diff.mean() / (diff.std(ddof=1) / math.sqrt(n))
    return float(t), _t_two_sided_p(t, n - 1), n - 1


def hypothesis(specs, ground_truth, rows: Rows, k, seed):
    subs = [subspace(s, rows, k) for s in specs]
    gt_first = subspace(ground_truth, rows, k)[0]
    rng = np.random.default_rng(seed)
    randoms = []
    for _ in range(10):
        v = rng.standard_normal(rows.matrix.shape[1])
        randoms.append(float(v / np.linalg.norm(v) @ gt_first))
    return {
        "category": [float(b[0] @ gt_first) for b in subs],
        "random": float(np.mean(randoms)),
        "josec": float(compose("josec", subs)[0] @ gt_first),
    }


# --- workload plans ------------------------------------------------------------

def short_label(order):
    return ">".join(n[:2] for n in order)


def pipeline_plans():
    """(label, strategy, order) of ``report --pipeline``, in report order."""
    plans = [(f"hard_seq({short_label(o)})", "seq", o)
             for o in itertools.permutations(SPECS)]
    return plans + [(s, s, ()) for s in ("sum", "mean", "josec")]


def expected_report(rows: Rows, lexicons, k) -> dict:
    """MAC record of every strategy, keyed as in the ``--json`` report."""
    specs = [lexicons[n] for n in SPECS]
    records = {"biased": macs(specs, rows)}
    for label, strategy, order in pipeline_plans():
        records[label] = macs(specs, run_plan(rows, specs, strategy, k, order))
    return records


def sweep_plans():
    """(label, strategy, order, frozen) run by the library sweep."""
    plans = []
    for frozen in (False, True):
        prefix = "frozen" if frozen else "seq"
        plans += [(f"{prefix}({short_label(o)})", "seq", o, frozen)
                  for o in itertools.permutations(SPECS)]
    return plans + [(s, s, (), False) for s in ("sum", "mean", "josec")]


def expected_sweep(rows: Rows, lexicons, k, seed) -> dict:
    specs = [lexicons[n] for n in SPECS]
    biased = [mac_table(s, rows) for s in specs]
    out = {"mac": {"biased": [float(t.mean()) for t in biased]}, "ttest": {}}
    for label, strategy, order, frozen in sweep_plans():
        tables = [mac_table(s, run_plan(rows, specs, strategy, k, order, frozen))
                  for s in specs]
        out["mac"][label] = [float(t.mean()) for t in tables]
        out["ttest"][label] = [paired_t(b, a) for b, a in zip(biased, tables)]
    out["hypothesis"] = hypothesis(specs[:2], lexicons[GROUND_TRUTH], rows, k, seed)
    return out


# --- checks ----------------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.

def _close(a, b, tol=TOL):
    return abs(a - b) <= tol


def check_report(records, expected) -> list[str]:
    problems = []
    if set(records) != set(expected):
        return [f"report keys {sorted(records)} != {sorted(expected)}"]
    for label, values in expected.items():
        record = records[label]
        if set(record) != set(SPECS) | {"Total"}:
            problems.append(f"{label}: record keys {sorted(record)}")
            continue
        parts = [record[n] for n in SPECS]
        if not _close(record["Total"], math.fsum(parts)):
            problems.append(f"{label}: Total {record['Total']!r} != sum {parts!r}")
        for name, got, want in zip(SPECS, parts, values):
            if not _close(got, want):
                problems.append(f"{label}/{name}: MAC {got!r}, reference {want!r}")
    return problems


def check_rows(words, matrix, vocab, expected: Rows) -> list[str]:
    """Row count, vocabulary order, unit norms and reference rows."""
    if list(words) != list(vocab):
        return [f"vocabulary differs from the input ({len(words)} vs {len(vocab)} rows)"]
    problems = []
    norm_err = float(np.abs(np.linalg.norm(matrix, axis=1) - 1.0).max())
    if norm_err > TOL:
        problems.append(f"row norms off by up to {norm_err:.3g}")
    index = {w: i for i, w in enumerate(words)}
    got = matrix[[index[w] for w in expected.words]]
    diff = np.abs(got - expected.matrix).max(axis=1)
    if diff.max() > TOL:
        worst = int(np.argmax(diff))
        problems.append(f"{int((diff > TOL).sum())} checked row(s) differ from the "
                        f"reference (worst {expected.words[worst]!r}: {diff[worst]:.3g})")
    return problems


def check_sweep(result, expected) -> list[str]:
    problems = []
    if set(result["mac"]) != set(expected["mac"]):
        return [f"sweep plans {sorted(result['mac'])} != {sorted(expected['mac'])}"]
    for label, values in expected["mac"].items():
        for name, got, want in zip(SPECS, result["mac"][label], values):
            if not _close(got, want):
                problems.append(f"{label}/{name}: MAC {got!r}, reference {want!r}")
    for label, tests in expected["ttest"].items():
        for name, got, want in zip(SPECS, result["ttest"][label], tests):
            t, p, df = got
            if (int(df) != want[2] or not _close(t, want[0], TOL * max(1.0, abs(t)))
                    or not _close(p, want[1], P_TOL)):
                problems.append(f"{label}/{name}: t-test {got!r}, reference {want!r}")
    hyp, want = result["hypothesis"], expected["hypothesis"]
    pairs = list(zip(hyp["category"], want["category"]))
    pairs += [(hyp["random"], want["random"]), (hyp["josec"], want["josec"])]
    if len(hyp["category"]) != len(want["category"]) or not all(
            _close(g, w) for g, w in pairs):
        problems.append(f"hypothesis {hyp!r}, reference {want!r}")
    return problems


def self_test(report_expected, rows_expected: Rows) -> list[str]:
    """The checks must pass the reference itself and flag a perturbed MAC and
    a perturbed row; returns the failures of that test."""
    failures = []
    records = {label: dict(zip(SPECS, values), Total=math.fsum(values))
               for label, values in report_expected.items()}
    if check_report(records, report_expected):
        failures.append("report check rejects the reference")
    label = next(iter(records))
    records[label][SPECS[0]] += 1e-6
    records[label]["Total"] += 1e-6
    if not check_report(records, report_expected):
        failures.append("report check missed a MAC perturbed by 1e-6")
    matrix = rows_expected.matrix.copy()
    words = rows_expected.words
    if check_rows(words, matrix, words, rows_expected):
        failures.append("row check rejects the reference")
    matrix[len(words) // 2, 0] += 1e-6
    if not check_rows(words, matrix, words, rows_expected):
        failures.append("row check missed a row perturbed by 1e-6")
    return failures
