"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with ``pytest -s`` to see them inline)."""

import json
import math
import time

import numpy as np
import pytest

from embdebias import (
    BiasSubspace,
    CategorySpec,
    DebiasPlan,
    EmbeddingSet,
    GroupOutcome,
    Strategy,
    bias_component,
    equality_differences,
    equalize,
    josec_direction,
    josec_objective,
    load_bundled_spec,
    load_embeddings,
    mac,
    neutralize,
    principal_components,
    run_plan,
    save_embeddings,
)
from embdebias.cli import main
from embdebias.errors import EqualizeDegenerateError

from conftest import make_set, random_orthonormal, unit_rows
from test_debias import scalar_equalize_oracle


def _pass(n, message):
    print(f"PASS criterion {n}: {message}")


def _sub(rows, label="b"):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return BiasSubspace(label, rows, np.zeros(rows.shape[0]))


def test_criterion_1_neutralize_correctness():
    rng = np.random.default_rng(101)
    d = 50
    subspaces = {k: _sub(random_orthonormal(d, k, rng)) for k in (1, 2, 5)}
    vectors = rng.standard_normal((1000, d))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    start = time.perf_counter()
    worst_norm = worst_dot = 0.0
    for k, subspace in subspaces.items():
        for w in vectors:
            out = neutralize(w, subspace)
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(out)) - 1.0))
            worst_dot = max(worst_dot, float(np.abs(subspace.components @ out).max()))
    elapsed = time.perf_counter() - start
    assert worst_norm < 1e-8
    assert worst_dot < 1e-8
    assert elapsed < 1.0
    _pass(1, f"3000 neutralizations, |norm-1| <= {worst_norm:.2e}, "
             f"max |dot| <= {worst_dot:.2e}, {elapsed:.2f}s")


def test_criterion_2_equalize_correctness():
    rng = np.random.default_rng(102)
    d = 10
    worst = 0.0
    worst_shared = 0.0
    cases = 0
    for size in (2, 3, 4):
        for k in (1, 2):
            for _ in range(10):
                basis = random_orthonormal(d, k, rng)
                subspace = _sub(basis)
                vectors = unit_rows(rng.standard_normal((size, d)))
                words = [f"w{i}" for i in range(size)]
                emb = make_set(words, vectors)
                out = equalize(words, subspace, emb)
                for v in out.values():
                    assert abs(np.linalg.norm(v) - 1.0) < 1e-10
                residuals = [v - bias_component(v, subspace) for v in out.values()]
                for r in residuals[1:]:
                    worst_shared = max(worst_shared,
                                       float(np.abs(r - residuals[0]).max()))
                expected = scalar_equalize_oracle(
                    [list(map(float, v)) for v in vectors],
                    [list(map(float, b)) for b in basis])
                for word, ref in zip(words, expected):
                    worst = max(worst, float(np.abs(out[word] - np.asarray(ref)).max()))
                cases += 1
    assert worst < 1e-10
    assert worst_shared < 1e-10
    emb = make_set(["x", "y"], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(EqualizeDegenerateError):
        equalize(["x", "y"], _sub([[1.0, 0.0]]), emb)
    _pass(2, f"{cases} random equality sets match the scalar oracle to "
             f"{worst:.2e}; shared residual spread {worst_shared:.2e}; "
             "degenerate set raises")


def test_criterion_3_pca_matches_gram_eigendecomposition():
    rng = np.random.default_rng(103)
    worst_cos = 1.0
    worst_var = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 201))
        d = int(rng.integers(2, 51))
        k = min(m, d, int(rng.integers(1, 6)))
        matrix = rng.standard_normal((m, d))
        sub = principal_components(matrix, k)
        evals, evecs = np.linalg.eigh(matrix.T @ matrix)
        order = np.argsort(evals)[::-1]
        for j in range(sub.k):
            cos = abs(float(sub.components[j] @ evecs[:, order[j]]))
            worst_cos = min(worst_cos, cos)
            ref_var = evals[order[j]] / max(m - 1, 1)
            worst_var = max(worst_var, abs(sub.explained_variance[j] - ref_var)
                            / max(ref_var, 1e-300))
    assert worst_cos > 1 - 1e-9
    assert worst_var < 1e-9
    _pass(3, f"100 instances up to 200x50; worst |cos| = {worst_cos:.12f}, "
             f"worst relative variance error = {worst_var:.2e}")


def _grid_search_maximizer_3d(stacked):
    """0.1-degree grid over the unit sphere in R^3 maximizing the summed
    squared projections onto the stacked rows."""
    step = np.deg2rad(0.1)
    thetas = np.arange(0.0, np.pi + step / 2, step)
    phis = np.arange(0.0, 2 * np.pi, step)
    best_val, best_vec = -1.0, None
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    for theta_block in np.array_split(thetas, 40):
        sin_t = np.sin(theta_block)[:, None]
        cos_t = np.cos(theta_block)[:, None]
        x = sin_t * cos_p[None, :]
        y = sin_t * sin_p[None, :]
        z = np.broadcast_to(cos_t, x.shape)
        pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        vals = ((pts @ stacked.T) ** 2).sum(axis=1)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val, best_vec = float(vals[idx]), pts[idx]
    return best_vec, best_val


def test_criterion_4_josec_optimality():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    sweep_margin = np.inf
    grid_checks = 0
    worst_grid_cos = 1.0
    for i in range(100):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 3))
        d = 3 if i < 10 else int(rng.integers(3, 11))
        subspaces = [_sub(random_orthonormal(d, k, rng), f"s{j}")
                     for j in range(n)]
        res = josec_direction(subspaces)
        stacked = np.vstack([b.components for b in subspaces])
        sweep = rng.standard_normal((100_000, d))
        sweep /= np.linalg.norm(sweep, axis=1)[:, None]
        sweep_best = float(((sweep @ stacked.T) ** 2).sum(axis=1).max())
        sweep_margin = min(sweep_margin, res.objective_value - sweep_best)
        assert res.objective_value >= sweep_best - 1e-12
        if d == 3:
            grid_vec, _ = _grid_search_maximizer_3d(stacked)
            cos = abs(float(res.subspace.components[0] @ grid_vec))
            worst_grid_cos = min(worst_grid_cos, cos)
            assert cos > 0.999
            grid_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(4, f"100 instances; objective beats a 1e5-point sweep "
             f"(min margin {sweep_margin:.2e}); {grid_checks} grid searches "
             f"at 0.1 deg, worst |cos| = {worst_grid_cos:.6f}; {elapsed:.1f}s")


def test_criterion_5_distance_objective_identity():
    rng = np.random.default_rng(105)
    from embdebias import distance_to_subspace
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 13))
        k = int(rng.integers(1, d))
        subspace = _sub(random_orthonormal(d, k, rng))
        u = rng.standard_normal((100, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        for vec in u:
            dist = distance_to_subspace(vec, subspace)
            obj = josec_objective(vec, [subspace])
            worst = max(worst, abs(dist ** 2 + obj - 1.0))
    assert worst < 1e-12
    _pass(5, f"10^4 (u, B) pairs; max |d^2 + objective - 1| = {worst:.2e}")


def _planted_two_category_construction():
    """d=50, 500 words; categories share direction g, with non-orthogonal
    per-category unique directions q1, q2."""
    d, n_words = 50, 500
    g = np.eye(d)[0]
    q1 = np.eye(d)[1]
    q2 = unit_rows([np.eye(d)[1] + np.eye(d)[2]])[0]  # 45 degrees from q1
    words, rows = [], []
    layout = [("cat0", ((g, 0.45, 10), (q1, 0.30, 11))),
              ("cat1", ((q2, 0.45, 12), (g, 0.30, 13)))]
    specs = []
    for name, pairs in layout:
        sets = []
        for j, (direction, sin_a, axis) in enumerate(pairs):
            m = np.eye(d)[axis]
            cos_a = math.sqrt(1 - sin_a ** 2)
            a, b = f"{name}p{j}a", f"{name}p{j}b"
            words += [a, b]
            rows += [m * cos_a + direction * sin_a, m * cos_a - direction * sin_a]
            sets.append((a, b))
        specs.append(CategorySpec(name, tuple(sets)))
    c_t = (math.sqrt(1 - 0.35 ** 2 - 0.25 ** 2), 0.35, 0.25)
    targets = []
    for t in range(10):
        words.append(f"prof{t}")
        rows.append(np.eye(d)[20 + t] * c_t[0] + g * c_t[1] + q1 * c_t[2])
        targets.append(f"prof{t}")
    attrs = []
    for a in range(5):
        words.append(f"attr{a}")
        rows.append(np.eye(d)[35 + a] * math.sqrt(1 - 0.4 ** 2) + g * 0.4)
        attrs.append(f"attr{a}")
    rng = np.random.default_rng(106)
    while len(words) < n_words:
        words.append(f"fill{len(words)}")
        rows.append(unit_rows([rng.standard_normal(d)])[0])
    emb = make_set(words, np.vstack(rows))
    return emb, specs, g, targets, attrs


def test_criterion_6_planted_bias_end_to_end():
    emb, specs, g, targets, attrs = _planted_two_category_construction()
    from embdebias import bias_subspace
    subspaces = [bias_subspace(s, emb, 2) for s in specs]

    # (a) the intersection direction recovers the shared direction
    res = josec_direction(subspaces)
    recover = abs(float(res.subspace.components[0] @ g))
    assert recover >= 0.99

    # (b) debiasing with it increases MAC on the planted lists
    def mac_of(embedding):
        return mac(embedding.take(targets), [embedding.take(attrs)]).mac

    biased_mac = mac_of(emb)
    josec_out = run_plan(emb, specs, DebiasPlan(strategy=Strategy.JOSEC, k=2))
    josec_mac = mac_of(josec_out)
    assert josec_mac > biased_mac

    # (c) the linear compositions leave strictly more of g behind
    residual = {}
    for strategy in (Strategy.SUM, Strategy.MEAN, Strategy.JOSEC):
        out = run_plan(emb, specs, DebiasPlan(strategy=strategy, k=2))
        residual[strategy] = max(abs(float(out.vector(w) @ g)) for w in targets)
    assert residual[Strategy.JOSEC] < 1e-8
    assert residual[Strategy.SUM] > residual[Strategy.JOSEC]
    assert residual[Strategy.MEAN] > residual[Strategy.JOSEC]
    _pass(6, f"|cos(josec, g)| = {recover:.6f}; MAC {biased_mac:.4f} -> "
             f"{josec_mac:.4f}; residual |<w,g>| josec {residual[Strategy.JOSEC]:.1e} "
             f"vs sum {residual[Strategy.SUM]:.3f} / mean {residual[Strategy.MEAN]:.3f}")


def test_criterion_7_mac_oracle():
    from test_evaluate import nested_loop_mac
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        n_s = int(rng.integers(1, 8))
        n_a = int(rng.integers(1, 5))
        d = int(rng.integers(2, 12))
        targets = rng.standard_normal((n_s, d))
        attribute_sets = [rng.standard_normal((int(rng.integers(1, 6)), d))
                          for _ in range(n_a)]
        mine = mac(targets, attribute_sets).mac
        ref = nested_loop_mac(targets.tolist(),
                              [a.tolist() for a in attribute_sets])
        worst = max(worst, abs(mine - ref))
    assert worst < 1e-12
    single = mac(np.array([[1.0, 0.0]]), [np.array([[0.0, 1.0]])]).mac
    assert single == 1.0
    _pass(7, f"50 random instances match the nested-loop oracle to {worst:.2e}; "
             "1x1 orthogonal case returns exactly 1.0")


def test_criterion_8_equality_differences():
    overall = GroupOutcome("overall", tp=5, fp=10, tn=10, fn=5)
    groups = [GroupOutcome("g1", tp=5, fp=4, tn=6, fn=5),
              GroupOutcome("g2", tp=5, fp=6, tn=4, fn=5)]
    fped, fned = equality_differences(groups, overall)
    assert abs(fped - 0.2) < 1e-12
    assert fned == 0.0
    equal = GroupOutcome("g", tp=2, fp=4, tn=4, fn=2)
    assert equality_differences([equal, equal],
                                GroupOutcome("overall", tp=4, fp=8, tn=8, fn=4)) \
        == (0.0, 0.0)
    rng = np.random.default_rng(108)
    invariant_checks = 0
    for _ in range(20):
        groups = [GroupOutcome(f"g{i}", tp=int(rng.integers(1, 30)),
                               fp=int(rng.integers(1, 30)),
                               tn=int(rng.integers(1, 30)),
                               fn=int(rng.integers(1, 30)))
                  for i in range(int(rng.integers(2, 8)))]
        overall = GroupOutcome("overall", tp=40, fp=25, tn=60, fn=30)
        base = equality_differences(groups, overall)
        perm = [groups[i] for i in rng.permutation(len(groups))]
        assert equality_differences(perm, overall) == base
        invariant_checks += 1
    _pass(8, f"two-group example FPED = {fped:.12f}; all-equal gives (0, 0); "
             f"permutation invariance on {invariant_checks} random instances")


@pytest.fixture(scope="module")
def big_embedding_file(tmp_path_factory):
    """100k-vocab, 300-dim synthetic embedding file containing the bundled
    lexicon words (stands in for a user-supplied trained set)."""
    specs = [load_bundled_spec(n) for n in ("gender", "race", "religion")]
    lexicon, seen = [], set()
    for spec in specs:
        for group in (spec.defining_sets + spec.equality_sets
                      + spec.target_words + spec.attribute_sets):
            for w in group:
                if w not in seen:
                    seen.add(w)
                    lexicon.append(w)
    n, d = 100_000, 300
    rng = np.random.default_rng(109)
    matrix = rng.standard_normal((n, d))
    matrix /= np.linalg.norm(matrix, axis=1)[:, None]
    words = lexicon + [f"w{i:06d}" for i in range(n - len(lexicon))]
    emb = EmbeddingSet(tuple(words), matrix)
    path = tmp_path_factory.mktemp("big") / "biased.txt"
    save_embeddings(emb, path, "word2vec-text")
    return str(path)


def test_criterion_9_full_pipeline_runs_under_ten_minutes(big_embedding_file,
                                                          tmp_path, capsys):
    json_path = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["report", "--embeddings", big_embedding_file,
                 "--specs", "gender", "race", "religion",
                 "--pipeline", "--k", "2", "--json", str(json_path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 600.0
    records = json.loads(json_path.read_text())
    expected = {"biased", "sum", "mean", "josec"} | {
        f"hard_seq({a}>{b}>{c})"
        for a, b, c in [("ge", "ra", "re"), ("ge", "re", "ra"),
                        ("ra", "ge", "re"), ("ra", "re", "ge"),
                        ("re", "ge", "ra"), ("re", "ra", "ge")]}
    assert set(records) == expected
    worst = 0.0
    for record in records.values():
        parts = sum(v for key, v in record.items() if key != "Total")
        worst = max(worst, abs(record["Total"] - parts))
    assert worst < 1e-9
    assert "best sequential order" in out
    _pass(9, f"pipeline (biased + 6 orders + sum/mean/josec) on 100k x 300 in "
             f"{elapsed:.0f}s; max |Total - sum| = {worst:.1e}")


def test_criterion_10_round_trip_and_determinism(tmp_path):
    rng = np.random.default_rng(110)
    emb = make_set([f"w{i}" for i in range(50)], rng.standard_normal((50, 20)))
    path = tmp_path / "rt.txt"
    save_embeddings(emb, path, "glove-text")
    back = load_embeddings(path, "glove-text")
    delta = float(np.abs(back.matrix - emb.matrix).max())
    assert delta < 1e-7

    emb2, specs, _, targets, attrs = _planted_two_category_construction()
    spec_paths = []
    for spec in specs:
        p = tmp_path / f"{spec.name}.json"
        p.write_text(json.dumps({
            "name": spec.name,
            "defining_sets": [list(ws) for ws in spec.defining_sets],
            "target_words": [targets],
            "attribute_sets": [attrs],
        }))
        spec_paths.append(str(p))
    emb_path = tmp_path / "planted.txt"
    save_embeddings(emb2, emb_path, "word2vec-text")
    args = ["report", "--embeddings", str(emb_path), "--specs", *spec_paths,
            "--pipeline", "--k", "2", "--seed", "13"]
    o1, o2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(o1), "--json", str(j1)]) == 0
    assert main(args + ["--out", str(o2), "--json", str(j2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert j1.read_bytes() == j2.read_bytes()
    _pass(10, f"round-trip max delta = {delta:.1e} (< 1e-7); seeded report "
              "reruns are byte-identical")
