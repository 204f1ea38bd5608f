import json
import warnings

import numpy as np
import pytest

from sidalign.align import load_checkpoint
from sidalign.cli import SCORERS, main
from sidalign.data import build_all_profiles, load_embeddings, load_profiles, load_trials
from sidalign.logit import build_weight_matrix, load_fusion, logit_score_direct
from sidalign.mlp import forward
from sidalign.numerics import cosine_similarity


def run_pipeline(root, seed=0):
    """Tiny end-to-end run; returns paths of every artifact produced."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "x": root / "x.jsonl",
        "y": root / "y.jsonl",
        "trials": root / "trials.tsv",
        "prof_x": root / "prof_x.jsonl",
        "prof_y": root / "prof_y.jsonl",
        "fusion": root / "fusion.json",
        "ckpt": root / "ckpt.json",
        "log": root / "train_log.jsonl",
        "scores": root / "scores.tsv",
        "report": root / "report.json",
    }
    assert main([
        "synth", "--n-speakers", "40", "--n-enroll", "3", "--n-runtime", "2",
        "--latent-dim", "8", "--embed-dim", "8",
        "--noise-x", "0.3", "--noise-y", "0.15",
        "--seed", str(seed), "--model-seed", "99",
        "--out-x", str(paths["x"]), "--out-y", str(paths["y"]),
        "--trials-out", str(paths["trials"]),
        "--n-target", "40", "--n-imposter", "40",
    ]) == 0
    assert main(["profile", "--embeddings", str(paths["x"]),
                 "--out", str(paths["prof_x"])]) == 0
    assert main(["profile", "--embeddings", str(paths["y"]),
                 "--out", str(paths["prof_y"])]) == 0
    assert main(["logit-align", "--profiles-x", str(paths["prof_x"]),
                 "--profiles-y", str(paths["prof_y"]),
                 "--out", str(paths["fusion"])]) == 0
    assert main([
        "train", "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
        "--variant", "m2", "--epochs", "2", "--steps", "4", "--batch", "16",
        "--hidden", "8", "--seed", str(seed),
        "--out", str(paths["ckpt"]), "--log", str(paths["log"]),
    ]) == 0
    assert main([
        "score", "--scorer", "nessa-m2", "--trials", str(paths["trials"]),
        "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
        "--checkpoint", str(paths["ckpt"]), "--out", str(paths["scores"]),
    ]) == 0
    assert main([
        "eval", "--scores", str(paths["scores"]), "--scorer-id", "nessa-m2",
        "--out", str(paths["report"]),
    ]) == 0
    return paths


class TestPipeline:
    def test_end_to_end_and_determinism(self, tmp_path):
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for key in ("x", "y", "trials", "prof_x", "prof_y", "fusion",
                    "ckpt", "scores", "report"):
            assert a[key].read_bytes() == b[key].read_bytes(), key

    def test_report_contents(self, tmp_path):
        paths = run_pipeline(tmp_path / "run")
        report = json.loads(paths["report"].read_text())
        assert report["scorer_id"] == "nessa-m2"
        assert 0.0 <= report["eer"] <= 1.0
        assert {e["target_far"] for e in report["per_far"]} == {0.125, 0.05, 0.02}
        assert "tool_version" in report and "config_hash" in report

    def test_all_scorers_run(self, tmp_path):
        paths = run_pipeline(tmp_path / "run")
        for scorer in ("cosine-sym-x", "cosine-sym-y", "cosine-asym-raw"):
            out = tmp_path / f"{scorer}.tsv"
            assert main([
                "score", "--scorer", scorer, "--trials", str(paths["trials"]),
                "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
                "--out", str(out),
            ]) == 0
            assert out.exists()
        out = tmp_path / "fused.tsv"
        assert main([
            "score", "--scorer", "logit-fused", "--trials", str(paths["trials"]),
            "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
            "--fusion", str(paths["fusion"]), "--out", str(out),
        ]) == 0

    def test_eval_with_baseline(self, tmp_path):
        paths = run_pipeline(tmp_path / "run")
        base_scores = tmp_path / "base.tsv"
        base_report = tmp_path / "base.json"
        assert main([
            "score", "--scorer", "cosine-asym-raw", "--trials", str(paths["trials"]),
            "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
            "--out", str(base_scores),
        ]) == 0
        assert main(["eval", "--scores", str(base_scores),
                     "--scorer-id", "raw", "--out", str(base_report)]) == 0
        out = tmp_path / "with_impact.json"
        assert main([
            "eval", "--scores", str(paths["scores"]), "--scorer-id", "nessa-m2",
            "--baseline-report", str(base_report), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert all("relative_impact" in e for e in report["per_far"])


@pytest.fixture(scope="module")
def scored_fixture(tmp_path_factory):
    """The pipeline above plus m1 and m3 checkpoints on the same corpora."""
    root = tmp_path_factory.mktemp("scorers")
    paths = run_pipeline(root / "run")
    for variant in ("m1", "m3"):
        paths[variant] = root / f"ckpt_{variant}.json"
        assert main([
            "train", "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
            "--variant", variant, "--epochs", "2", "--steps", "4", "--batch", "16",
            "--bank-size", "8", "--hidden", "8", "--seed", "0",
            "--out", str(paths[variant]),
        ]) == 0
    paths["m2"] = paths["ckpt"]
    return paths


def library_scores(scorer, paths, trials):
    """Per-trial scalar scoring with the library's own pieces: the oracle
    for what `sidalign score` writes."""
    corpora = {v: load_embeddings(paths[v]) for v in ("x", "y")}
    prof = {v: {p.speaker_id: p.vector for p in build_all_profiles(c, c.model_ids[0])}
            for v, c in corpora.items()}
    run = {v: {r.utterance_id: r.vector for r in c.records if r.split == "runtime"}
           for v, c in corpora.items()}

    def same(v):
        return v

    def net(variant, name):
        mlp = getattr(load_checkpoint(paths[variant]), name)
        return lambda v: forward(mlp, v)[0]

    def block(side):
        fusion = load_fusion(paths["fusion"])
        cols = fusion.m[:, :fusion.d] if side == 0 else fusion.m[:, fusion.d:]
        return lambda v: cols @ v

    makers = {
        "logit-fused": lambda: (block(0), block(1)),
        "nessa-m1": lambda: (same, net("m1", "f1")),
        "nessa-m2": lambda: (net("m2", "f1"), same),
        "nessa-m3": lambda: (net("m3", "f1"), net("m3", "f2")),
    }
    maps = makers[scorer]() if scorer in makers else (same, same)
    views = {"cosine-sym-x": ("x", "x"), "cosine-sym-y": ("y", "y")}.get(scorer, ("x", "y"))
    return np.array([
        cosine_similarity(maps[0](prof[views[0]][t.enroll_speaker_id]),
                          maps[1](run[views[1]][t.test_utterance_id]))
        for t in trials.trials])


class TestScorerParity:
    @pytest.mark.parametrize("scorer", list(SCORERS))
    def test_cli_matches_library(self, scored_fixture, scorer, tmp_path):
        paths = scored_fixture
        base = ["score", "--scorer", scorer, "--trials", str(paths["trials"]),
                "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
                "--out", str(tmp_path / "scores.tsv")]
        artifact = {"logit-fused": ("--fusion", paths["fusion"]),
                    "nessa-m1": ("--checkpoint", paths["m1"]),
                    "nessa-m2": ("--checkpoint", paths["m2"]),
                    "nessa-m3": ("--checkpoint", paths["m3"])}.get(scorer)
        if artifact is not None:
            assert main(base) == 1  # the artifact option is required
            base += [artifact[0], str(artifact[1])]
        assert main(base) == 0
        scored = load_trials(tmp_path / "scores.tsv")
        got = np.array(scored.scores)
        want = library_scores(scorer, paths, scored)
        # the file holds 9 significant digits
        np.testing.assert_allclose(got, want, rtol=5e-9, atol=1e-12)
        if scorer == "logit-fused":
            shared = [p.speaker_id for p in load_profiles(paths["prof_x"])]
            w_x = build_weight_matrix(load_profiles(paths["prof_x"]), shared)
            w_y = build_weight_matrix(load_profiles(paths["prof_y"]), shared)
            cx, cy = load_embeddings(paths["x"]), load_embeddings(paths["y"])
            prof_x = {p.speaker_id: p.vector for p in build_all_profiles(cx, "X")}
            run_y = {r.utterance_id: r.vector for r in cy.records
                     if r.split == "runtime"}
            direct = [logit_score_direct(prof_x[t.enroll_speaker_id],
                                         run_y[t.test_utterance_id], w_x, w_y)
                      for t in scored.trials]
            assert np.max(np.abs(got - direct)) <= 1e-6


class TestErrors:
    def test_missing_file_exit_one(self, tmp_path):
        assert main(["profile", "--embeddings", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")]) == 1

    def test_scorer_checkpoint_required(self, tmp_path):
        paths = run_pipeline(tmp_path / "run")
        assert main([
            "score", "--scorer", "nessa-m1", "--trials", str(paths["trials"]),
            "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
            "--out", str(tmp_path / "o.tsv"),
        ]) == 1

    def test_variant_mismatch_exit_one(self, tmp_path):
        paths = run_pipeline(tmp_path / "run")
        assert main([
            "score", "--scorer", "nessa-m1", "--trials", str(paths["trials"]),
            "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
            "--checkpoint", str(paths["ckpt"]),
            "--out", str(tmp_path / "o.tsv"),
        ]) == 1

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["score", "--scorer", "not-a-scorer"])
        assert excinfo.value.code == 2

    def test_eval_non_finite_score_exit_one(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("a\tu1\ttarget\t0.9\n"
                          "a\tu2\ttarget\tnan\n"
                          "b\tu1\timposter\t0.1\n"
                          "b\tu2\timposter\t0.2\n")
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores),
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("content", [
        '{"eer": 0.1}',
        '{"per_far": [{"target_far": 0.05}]}',
        '{"per_far": [',
    ], ids=["no-per-far", "entry-without-frr", "not-json"])
    def test_eval_malformed_baseline_exit_one(self, scored_fixture, tmp_path,
                                              capsys, content):
        paths = scored_fixture
        base = tmp_path / "base.json"
        base.write_text(content)
        capsys.readouterr()
        assert main(["eval", "--scores", str(paths["scores"]),
                     "--baseline-report", str(base),
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_eval_closes_report_files(self, scored_fixture, tmp_path):
        paths = scored_fixture
        out = tmp_path / "with_impact.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([
                "eval", "--scores", str(paths["scores"]),
                "--baseline-report", str(paths["report"]),
                "--candidate-report", str(paths["report"]), "--out", str(out),
            ]) == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestGradcheck:
    def test_default_passes(self):
        assert main(["gradcheck", "--dim", "6", "--hidden", "10"]) == 0

    def test_absurd_tolerance_fails(self):
        assert main(["gradcheck", "--dim", "6", "--hidden", "10",
                     "--tolerance", "1e-18"]) == 1
