import argparse
import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest

from embdebias import (
    DebiasPlan,
    Strategy,
    load_category_spec,
    load_embeddings,
    load_subspace,
    mac_for_category,
    normalize,
    run_plan,
)
from embdebias.cli import build_parser, main

from conftest import unit_rows, write_embeddings_file


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Embedding file with two planted categories plus target/attribute words,
    and matching spec files."""
    root = tmp_path_factory.mktemp("cli")
    dim = 16
    rng = np.random.default_rng(100)
    g1 = np.eye(dim)[0]
    g2 = unit_rows([0.2 * np.eye(dim)[0] + np.eye(dim)[1]])[0]
    u0, u1 = np.eye(dim)[2], np.eye(dim)[7]
    words, rows = [], []
    for c, (g, u) in enumerate(((g1, u0), (g2, u1))):
        for j, (direction, sin_a) in enumerate(((g, 0.5), (u, 0.35))):
            m = np.eye(dim)[3 + 2 * c + j]
            cos_a = math.sqrt(1 - sin_a ** 2)
            words += [f"c{c}d{j}a", f"c{c}d{j}b"]
            rows += [m * cos_a + direction * sin_a, m * cos_a - direction * sin_a]
    for t in range(6):
        words.append(f"t{t}")
        rows.append(unit_rows([np.eye(dim)[8 + t] + 0.45 * g1 + 0.3 * g2])[0])
    for a in range(4):
        words.append(f"a{a}")
        rows.append(unit_rows([np.eye(dim)[8 + 6 + a % 2] * 0.1
                               + np.eye(dim)[14] + 0.5 * g1])[0])
    for f in range(30):
        words.append(f"f{f}")
        rows.append(unit_rows([rng.standard_normal(dim)])[0])
    emb_path = write_embeddings_file(root / "emb.txt", words, np.vstack(rows))

    spec_paths = []
    for c in range(2):
        payload = {
            "name": f"cat{c}",
            "defining_sets": [[f"c{c}d0a", f"c{c}d0b"], [f"c{c}d1a", f"c{c}d1b"]],
            "equality_sets": [[f"c{c}d0a", f"c{c}d0b"]],
            "target_words": [[f"t{t}" for t in range(6)]],
            "attribute_sets": [[f"a{a}" for a in range(4)]],
        }
        path = root / f"cat{c}.json"
        path.write_text(json.dumps(payload))
        spec_paths.append(str(path))
    gt = {
        "name": "gt",
        "defining_sets": [["c0d0a", "c0d0b"], ["c1d0a", "c1d0b"]],
    }
    gt_path = root / "gt.json"
    gt_path.write_text(json.dumps(gt))
    return {"root": root, "emb": str(emb_path), "specs": spec_paths,
            "gt": str(gt_path)}


def test_subspace_single(workspace, tmp_path, capsys):
    out = tmp_path / "c0.sub"
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", workspace["specs"][0], "--k", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "cat0 1 16"
    sub = load_subspace(out)
    assert abs(abs(sub.components[0][0]) - 1.0) < 1e-6  # planted along e0


def test_subspace_josec_prints_objective(workspace, tmp_path, capsys):
    out = tmp_path / "j.sub"
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", *workspace["specs"], "--k", "1",
                 "--strategy", "josec", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "objective value:" in captured
    assert out.read_text().startswith("JOSEC 1 16")


def test_subspace_requires_k(workspace, tmp_path, capsys):
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", workspace["specs"][0], "--out", str(tmp_path / "x.sub")])
    assert code == 2
    assert "--k is required" in capsys.readouterr().err


def test_missing_spec_file_exits_2(workspace, tmp_path, capsys):
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", "/nope/missing.json", "--k", "1",
                 "--out", str(tmp_path / "x.sub")])
    assert code == 2
    assert "/nope/missing.json" in capsys.readouterr().err


def test_bundled_lexicon_names_accepted(tmp_path):
    # every bundled gender defining word must be present for the subspace
    words = ["woman", "man", "girl", "boy", "she", "he", "mother", "father",
             "daughter", "son", "gal", "guy", "female", "male", "her", "his",
             "herself", "himself", "Mary", "John", "x1", "x2"]
    emb = tmp_path / "g.txt"
    rng = np.random.default_rng(5)
    write_embeddings_file(emb, words, unit_rows(rng.standard_normal((len(words), 6))))
    out = tmp_path / "g.sub"
    code = main(["subspace", "--embeddings", str(emb), "--spec", "gender",
                 "--k", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("gender 1 6")


def test_debias_single_and_manifest(workspace, tmp_path):
    out = tmp_path / "deb.txt"
    code = main(["debias", "--embeddings", workspace["emb"],
                 "--specs", workspace["specs"][0], "--strategy", "single",
                 "--k", "1", "--out", str(out)])
    assert code == 0
    emb = load_embeddings(out, "word2vec-text")
    for t in range(6):
        assert abs(emb.vector(f"t{t}")[0]) < 1e-8  # g1 component removed
    manifest = json.loads((tmp_path / "deb.txt.manifest.json").read_text())
    assert manifest["command"] == "debias"
    assert manifest["outputs"] == [str(out)]
    assert len(manifest["config_sha256"]) == 64


def test_debias_all_orders(workspace, tmp_path):
    out = tmp_path / "deb.txt"
    code = main(["debias", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--strategy", "seq",
                 "--all-orders", "--k", "1", "--out", str(out)])
    assert code == 0
    produced = sorted(p.name for p in tmp_path.glob("deb.*.txt"))
    assert produced == ["deb.cat0-cat1.txt", "deb.cat1-cat0.txt"]


def test_neutral_words_file_splits_as_the_loader(workspace, tmp_path):
    # the loader keeps U+00A0 inside a token, so the neutral list must too
    emb = load_embeddings(workspace["emb"], "word2vec-text")
    path = write_embeddings_file(tmp_path / "e.txt", [*emb.vocab, "new\u00a0york"],
                                 np.vstack([emb.matrix, emb.vector("t0")]))
    neutral = tmp_path / "neutral.txt"
    neutral.write_text("t0\tnew\u00a0york\n", encoding="utf-8")
    out = tmp_path / "deb.txt"
    assert main(["debias", "--embeddings", str(path), "--specs", workspace["specs"][0],
                 "--neutral-words", str(neutral), "--k", "1", "--out", str(out)]) == 0
    deb = load_embeddings(out, "word2vec-text")
    assert abs(deb.vector("new\u00a0york")[0]) < 1e-8  # g1 component removed
    np.testing.assert_allclose(deb.vector("new\u00a0york"), deb.vector("t0"),
                               rtol=0, atol=1e-12)
    manifest = json.loads((tmp_path / "deb.txt.manifest.json").read_text())
    assert manifest["warnings"] == []


def test_debias_seq_requires_order(workspace, tmp_path, capsys):
    code = main(["debias", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--strategy", "seq",
                 "--k", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "--order" in capsys.readouterr().err


def test_debias_refuses_unnormalized_without_flag(workspace, tmp_path, capsys):
    emb = tmp_path / "raw.txt"
    write_embeddings_file(emb, ["a", "b", "c"],
                          np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]]))
    code = main(["debias", "--embeddings", str(emb), "--no-normalize",
                 "--specs", workspace["specs"][0], "--strategy", "single",
                 "--k", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "not unit-normalized" in capsys.readouterr().err


def test_eval_mac_with_baseline_and_f_table(workspace, tmp_path, capsys):
    deb = tmp_path / "deb.txt"
    assert main(["debias", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--strategy", "josec",
                 "--k", "1", "--out", str(deb)]) == 0
    table = tmp_path / "f.csv"
    code = main(["eval-mac", "--embeddings", str(deb),
                 "--specs", *workspace["specs"],
                 "--baseline", workspace["emb"], "--f-table", str(table)])
    assert code == 0
    out = capsys.readouterr().out
    assert "category" in out and "delta" in out and "Total" in out
    lines = table.read_text().splitlines()
    assert lines[0] == "category,target,attribute_set,f"
    assert len(lines) == 1 + 2 * 6 * 1  # two categories, six targets, one set


def test_eval_eq_two_group_example(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("group,tp,fp,tn,fn\n"
                      "overall,5,10,10,5\n"
                      "g1,5,4,6,5\n"
                      "g2,5,6,4,5\n")
    code = main(["eval-eq", "--counts", str(counts)])
    assert code == 0
    out = capsys.readouterr().out
    assert "FPED  0.200000" in out
    assert "FNED  0.000000" in out
    assert "Total 0.200000" in out


def test_eval_eq_missing_overall(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("group,tp,fp,tn,fn\ng1,5,4,6,5\n")
    assert main(["eval-eq", "--counts", str(counts)]) == 2
    assert "overall" in capsys.readouterr().err


def test_eval_eq_refuses_embedding_options(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("group,tp,fp,tn,fn\noverall,5,10,10,5\ng1,5,4,6,5\n")
    for flags in (["--embeddings", "/nope.txt"], ["--seed", "5"],
                  ["--double-center"], ["--no-normalize"], ["--lowercase-fallback"]):
        with pytest.raises(SystemExit) as exc:
            main(["eval-eq", "--counts", str(counts), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    out = tmp_path / "e.out"
    assert main(["eval-eq", "--counts", str(counts), "--out", str(out)]) == 0
    config = json.loads((tmp_path / "e.out.manifest.json").read_text())["config"]
    assert config == {"counts": str(counts), "out": str(out)}


# (subcommand, flags, config key and value) of options no code path of that
# subcommand reads
UNREAD_OPTIONS = [
    ("subspace", ["--seed", "5"], {"seed": 5}),
    ("debias", ["--seed", "5"], {"seed": 5}),
    ("eval-mac", ["--seed", "5"], {"seed": 5}),
    ("eval-mac", ["--double-center"], {"double_center": True}),
    ("eval-mac", ["--strict-degenerate"], {"strict_degenerate": True}),
    ("eval-eq", ["--strict-degenerate"], {"strict_degenerate": True}),
]


@pytest.mark.parametrize("command,flags,config", UNREAD_OPTIONS)
def test_unread_option_exits_2(tmp_path, capsys, command, flags, config):
    with pytest.raises(SystemExit) as exc:
        main([command, *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    key, = config
    assert f"config key {key!r} is not an option of" in capsys.readouterr().err


def test_every_declared_option_is_read(workspace, tmp_path, monkeypatch):
    # every dest a subcommand's parser declares is read by some run of that
    # subcommand; together the runs below take every mode of each command
    reads = {}

    class Recorder(argparse.Namespace):
        recording = False

        def __getattribute__(self, name):
            if type(self).recording:
                command = super().__getattribute__("command")
                reads.setdefault(command, set()).add(name)
            return super().__getattribute__(name)

    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(parser, args=None, namespace=None):
        Recorder.recording = False
        parsed = parse_args(parser, args, Recorder())
        Recorder.recording = True
        return parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    emb, specs, gt = workspace["emb"], workspace["specs"], workspace["gt"]
    counts = tmp_path / "counts.csv"
    counts.write_text("group,tp,fp,tn,fn\noverall,5,10,10,5\ng1,5,4,6,5\n")
    neutral = tmp_path / "neutral.txt"
    neutral.write_text("t0 t1\nf0\n")
    out, deb = str(tmp_path / "out.txt"), str(tmp_path / "deb.txt")
    loaded = ["--embeddings", emb, "--specs", *specs]
    runs = [
        ["subspace", "--embeddings", emb, "--spec", specs[0], "--k", "1",
         "--out", out],
        ["subspace", "--embeddings", emb, "--spec", *specs, "--k", "1",
         "--strategy", "josec", "--out", out],
        ["debias", *loaded, "--strategy", "seq", "--order", "cat0,cat1",
         "--k", "1", "--out", deb],
        ["debias", *loaded, "--strategy", "seq", "--all-orders", "--k", "1",
         "--frozen-subspaces", "--out", out],
        ["debias", *loaded, "--neutral-words", str(neutral), "--strategy", "josec",
         "--k", "1", "--out", out],
        ["eval-mac", *loaded, "--baseline", deb, "--f-table", out],
        ["eval-eq", "--counts", str(counts), "--out", out],
        ["validate-hypothesis", *loaded, "--ground-truth", gt, "--k", "1",
         "--projection-csv", out],
        ["report", *loaded, "--pipeline", "--ground-truth", gt, "--k", "1",
         "--projection-csv", out, "--json", str(tmp_path / "r.json")],
        ["report", *loaded, "--debiased", deb],
    ]
    for run in runs:
        assert main(run) == 0, run
    sub = next(a for a in build_parser()._actions if a.choices)
    for command, parser in sub.choices.items():
        declared = {a.dest for a in parser._actions
                    if a.option_strings and a.dest != "help"}
        assert declared - reads[command] == set(), command


def test_validate_hypothesis_deterministic(workspace, tmp_path):
    args = ["validate-hypothesis", "--embeddings", workspace["emb"],
            "--specs", *workspace["specs"], "--ground-truth", workspace["gt"],
            "--k", "1", "--seed", "42"]
    out1, csv1 = tmp_path / "r1.txt", tmp_path / "p1.csv"
    out2, csv2 = tmp_path / "r2.txt", tmp_path / "p2.csv"
    assert main(args + ["--out", str(out1), "--projection-csv", str(csv1)]) == 0
    assert main(args + ["--out", str(out2), "--projection-csv", str(csv2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == "label,component_index,x,y,z"


def test_report_mac_only(workspace, capsys):
    code = main(["report", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "biased" in out and "Total" in out


def test_report_pair_mode(workspace, tmp_path, capsys):
    deb = tmp_path / "deb.txt"
    assert main(["debias", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--strategy", "sum",
                 "--k", "1", "--out", str(deb)]) == 0
    code = main(["report", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--debiased", str(deb)])
    assert code == 0
    out = capsys.readouterr().out
    assert "debiased" in out and "paired-t" in out


def test_report_pipeline_with_json(workspace, tmp_path, capsys):
    json_path = tmp_path / "r.json"
    code = main(["report", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--pipeline", "--k", "1",
                 "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    for label in ("biased", "hard_seq(cat0>cat1)", "hard_seq(cat1>cat0)",
                  "sum", "mean", "josec", "best sequential order"):
        assert label in out
    records = json.loads(json_path.read_text())
    assert {"biased", "sum", "mean", "josec"} <= set(records)
    for record in records.values():
        parts = sum(v for k, v in record.items() if k != "Total")
        assert abs(record["Total"] - parts) < 1e-9


def test_report_debiased_with_pipeline_exits_2(workspace, tmp_path, capsys):
    base = ["report", "--embeddings", workspace["emb"],
            "--specs", *workspace["specs"], "--k", "1"]
    assert main(base + ["--debiased", workspace["emb"], "--pipeline"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"debiased": workspace["emb"], "pipeline": True}))
    assert main(base + ["--config", str(config)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_report_hypothesis_matches_validate_hypothesis(workspace, tmp_path, capsys):
    common = ["--embeddings", workspace["emb"], "--specs", *workspace["specs"],
              "--ground-truth", workspace["gt"], "--k", "1", "--seed", "5"]
    csv1, csv2 = tmp_path / "v.csv", tmp_path / "r.csv"
    assert main(["validate-hypothesis", *common, "--projection-csv", str(csv1)]) == 0
    summary = capsys.readouterr().out
    out, js = tmp_path / "r.txt", tmp_path / "r.json"
    assert main(["report", *common, "--projection-csv", str(csv2),
                 "--out", str(out), "--json", str(js)]) == 0
    assert out.read_text().endswith("\n" + summary)
    assert csv1.read_bytes() == csv2.read_bytes()
    manifest = json.loads((tmp_path / "r.txt.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(csv2), str(js)]


def test_report_seeded_rerun_byte_identical(workspace, tmp_path):
    base = ["report", "--embeddings", workspace["emb"],
            "--specs", *workspace["specs"], "--pipeline", "--k", "1",
            "--ground-truth", workspace["gt"], "--seed", "11"]
    o1, o2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(base + ["--out", str(o1), "--json", str(j1)]) == 0
    assert main(base + ["--out", str(o2), "--json", str(j2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert j1.read_bytes() == j2.read_bytes()


def test_config_file_precedence(workspace, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "embeddings": workspace["emb"],
        "spec": [workspace["specs"][0]],
        "k": 1,
    }))
    out1 = tmp_path / "k1.sub"
    assert main(["subspace", "--config", str(config), "--out", str(out1)]) == 0
    assert out1.read_text().splitlines()[0] == "cat0 1 16"
    out2 = tmp_path / "k2.sub"
    assert main(["subspace", "--config", str(config), "--k", "2",
                 "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[0] == "cat0 2 16"


def test_order_and_all_orders_mutually_exclusive(workspace, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"order": "cat0,cat1", "all_orders": True}))
    code = main(["debias", "--config", str(config),
                 "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--strategy", "seq",
                 "--k", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err
    code = main(["debias", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--strategy", "seq",
                 "--order", "cat0,cat1", "--all-orders",
                 "--k", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["subspace", "debias", "eval-mac",
                                     "validate-hypothesis", "report"])
def test_manifest_config_reruns_the_command(workspace, tmp_path, command):
    # the manifest's config alone, fed back as --config, repeats the run
    specs = workspace["specs"]
    args = {
        "subspace": ["--spec", *specs, "--k", "1", "--strategy", "josec"],
        "debias": ["--specs", *specs, "--strategy", "seq",
                   "--order", "cat1,cat0", "--k", "1", "--lowercase-fallback"],
        "eval-mac": ["--specs", *specs, "--baseline", workspace["emb"]],
        "validate-hypothesis": ["--specs", *specs, "--ground-truth",
                                workspace["gt"], "--k", "1", "--seed", "7"],
        "report": ["--specs", *specs, "--pipeline", "--k", "1",
                   "--no-normalize"],
    }[command]

    def outputs(run):
        paths = [tmp_path / f"{run}.txt", tmp_path / f"{run}.json"]
        paths = paths if command == "report" else paths[:1]
        flags = [x for flag, path in zip(("--out", "--json"), paths)
                 for x in (flag, str(path))]
        return paths, flags

    first, first_flags = outputs("first")
    again, again_flags = outputs("again")
    assert main([command, "--embeddings", workspace["emb"], *args,
                 *first_flags]) == 0
    manifest = json.loads((tmp_path / "first.txt.manifest.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(manifest["config"]))
    assert main([command, "--config", str(config), *again_flags]) == 0
    for a, b in zip(first, again):
        assert a.read_bytes() == b.read_bytes()
    rerun = json.loads((tmp_path / "again.txt.manifest.json").read_text())
    assert rerun["config"] == {**manifest["config"],
                               **dict(zip(("out", "json"), map(str, again)))}


def test_unwritable_output_exits_1(workspace, tmp_path, capsys):
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", workspace["specs"][0], "--k", "1",
                 "--out", str(tmp_path / "no_dir" / "x.sub")])
    assert code == 1


def test_strict_degenerate_exits_3(workspace, tmp_path, capsys):
    # request more components than the defining sets can provide
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", workspace["specs"][0], "--k", "4",
                 "--out", str(tmp_path / "x.sub"), "--strict-degenerate"])
    assert code == 3
    err = capsys.readouterr().err
    assert "degeneracy" in err


def test_one_pair_category_costs_no_plan(workspace, tmp_path, capsys):
    # at --k 2 this spec gets one component next to two 2-component ones
    spec = tmp_path / "onepair.json"
    spec.write_text(json.dumps({
        "name": "onepair", "defining_sets": [["f0", "f1"]],
        "target_words": [[f"t{t}" for t in range(6)]],
        "attribute_sets": [["a0", "a1"], ["a2", "a3"]]}))
    specs = [*workspace["specs"], str(spec)]
    args = ["report", "--embeddings", workspace["emb"], "--specs", *specs,
            "--k", "2", "--pipeline"]
    assert main(args) == 0
    captured = capsys.readouterr()
    labels = [row.split()[0] for row in captured.out.split("\n\n")[0].splitlines()[1:]]
    assert len(labels) == 10
    assert labels[0] == "biased" and labels[-3:] == ["sum", "mean", "josec"]
    assert all(label.startswith("hard_seq(") for label in labels[1:7])
    assert "SUM/MEAN composes the leading 1 component(s)" in captured.err
    assert main(args + ["--strict-degenerate"]) == 3
    assert main(["debias", "--embeddings", workspace["emb"], "--specs", *specs,
                 "--k", "2", "--strategy", "sum",
                 "--out", str(tmp_path / "sum.txt")]) == 0


def test_warnings_recorded_in_manifest(workspace, tmp_path):
    out = tmp_path / "x.sub"
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", workspace["specs"][0], "--k", "4", "--out", str(out)])
    assert code == 0  # degeneracy is only a warning without the strict flag
    manifest = json.loads((tmp_path / "x.sub.manifest.json").read_text())
    assert any("RankDeficiencyWarning" in w for w in manifest["warnings"])


def test_linalg_error_exits_2(workspace, tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr("embdebias.cli.bias_subspace", no_convergence)
    code = main(["subspace", "--embeddings", workspace["emb"],
                 "--spec", workspace["specs"][0], "--k", "1",
                 "--out", str(tmp_path / "x.sub")])
    assert code == 2
    assert "error: SVD did not converge" in capsys.readouterr().err


def test_memory_error_exits_1(workspace, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("embdebias.cli.load_embeddings", exhausted)
    code = main(["report", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--pipeline", "--k", "1"])
    assert code == 1
    assert "error: out of memory" in capsys.readouterr().err


# --- report --pipeline runs on the lexicon rows only -------------------------

def _full_vocabulary_records(emb_path, spec_paths, short, k, *,
                             lowercase_fallback=False, frozen_subspaces=False,
                             double_center=False):
    """MAC records of every pipeline plan, each run with ``run_plan`` on the
    whole vocabulary, keyed as in the ``report --json`` output."""
    emb = normalize(load_embeddings(emb_path, "word2vec-text"))
    specs = [load_category_spec(p) for p in spec_paths]
    base = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=k,
                      lowercase_fallback=lowercase_fallback,
                      frozen_subspaces=frozen_subspaces,
                      double_center=double_center)
    plans = {"hard_seq(" + ">".join(short[o] for o in order) + ")":
             dataclasses.replace(base, category_order=order)
             for order in itertools.permutations(s.name for s in specs)}
    for name in ("sum", "mean", "josec"):
        plans[name] = dataclasses.replace(base, strategy=Strategy(name))
    records = {}
    for label, plan in [("biased", None), *plans.items()]:
        debiased = emb if plan is None else run_plan(emb, specs, plan)
        macs = {s.name: mac_for_category(s, debiased, lowercase_fallback).mac
                for s in specs}
        records[label] = {**macs, "Total": sum(macs.values())}
    return records, len(emb)


def _assert_records_close(records, expected):
    assert set(records) == set(expected)
    for label, record in expected.items():
        assert set(records[label]) == set(record), label
        for key, value in record.items():
            assert abs(records[label][key] - value) <= 1e-12, (label, key)


def test_pipeline_matches_full_vocabulary_plans(workspace, tmp_path):
    out, js = tmp_path / "r.txt", tmp_path / "r.json"
    assert main(["report", "--embeddings", workspace["emb"],
                 "--specs", *workspace["specs"], "--pipeline", "--k", "1",
                 "--out", str(out), "--json", str(js)]) == 0
    expected, n_vocab = _full_vocabulary_records(
        workspace["emb"], workspace["specs"], {"cat0": "cat0", "cat1": "cat1"}, 1)
    _assert_records_close(json.loads(js.read_text()), expected)
    notes = json.loads((tmp_path / "r.txt.manifest.json").read_text())["notes"]
    # 8 defining words, 6 targets, 4 attributes; the 30 fillers are skipped
    assert f"debiased_rows=18/{n_vocab}" in notes


@pytest.fixture(scope="module")
def case_twin_workspace(tmp_path_factory):
    """Random unit rows for two categories whose spec words are capitalized;
    the vocabulary holds some words in both cases, some only in lower case
    (reached by the lowercase fallback) and some only as spelled. Gender's
    equality sets include race's first defining pair, so frozen and
    recomputed sequential subspaces differ."""
    root = tmp_path_factory.mktemp("twins")
    rng = np.random.default_rng(47)
    words, spec_paths = [], []
    for cat in ("gender", "race"):
        c = cat[0].upper()
        defining = [[f"{c}a{j}", f"{c}b{j}"] for j in range(3)]
        targets = [f"{c}t{i}" for i in range(5)]
        attributes = [[f"{c}x{i}" for i in range(3)], [f"{c}y{i}" for i in range(3)]]
        spelled = [w for ws in defining for w in ws] + targets + attributes[0] + attributes[1]
        for i, w in enumerate(spelled):
            # both cases, lower case only, as spelled only
            words += [[w, w.lower()], [w.lower()], [w]][i % 3]
        equality = [defining[0]] + ([["Ra0", "Rb0"]] if cat == "gender" else [])
        path = root / f"{cat}.json"
        path.write_text(json.dumps({
            "name": cat, "defining_sets": defining, "equality_sets": equality,
            "target_words": [targets], "attribute_sets": attributes}))
        spec_paths.append(str(path))
    words += [f"fill{i}" for i in range(60)]
    emb_path = write_embeddings_file(root / "emb.txt", words,
                                     rng.standard_normal((len(words), 12)))
    return str(emb_path), spec_paths, len(words)


@pytest.mark.parametrize("frozen", [False, True])
def test_pipeline_matches_full_vocabulary_with_case_twins(case_twin_workspace,
                                                           tmp_path, frozen):
    emb_path, spec_paths, n_vocab = case_twin_workspace
    flags = ["--lowercase-fallback", "--double-center"]
    flags += ["--frozen-subspaces"] if frozen else []
    out, js = tmp_path / "r.txt", tmp_path / "r.json"
    assert main(["report", "--embeddings", emb_path, "--specs", *spec_paths,
                 "--pipeline", "--k", "2", *flags,
                 "--out", str(out), "--json", str(js)]) == 0
    expected, _ = _full_vocabulary_records(
        emb_path, spec_paths, {"gender": "ge", "race": "ra"}, 2,
        lowercase_fallback=True, frozen_subspaces=frozen, double_center=True)
    _assert_records_close(json.loads(js.read_text()), expected)
    notes = json.loads((tmp_path / "r.txt.manifest.json").read_text())["notes"]
    lexicon_rows = n_vocab - 60
    assert f"debiased_rows={lexicon_rows}/{n_vocab}" in notes
