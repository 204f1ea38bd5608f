import argparse
import json
import warnings
from unittest import mock

import numpy as np
import pytest

from sidalign import data
from sidalign.align import NessaConfig, load_checkpoint
from sidalign.cli import SCORERS, _config_hash, build_parser, main
from sidalign.data import build_all_profiles, load_embeddings, load_profiles, load_trials
from sidalign.errors import SidAlignError
from sidalign.logit import build_weight_matrix, load_fusion, logit_score_direct
from sidalign.metrics import DEFAULT_FAR_TARGETS
from sidalign.mlp import forward
from sidalign.numerics import cosine_similarity
from sidalign.synth import SynthConfig


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

    def test_synth_config_file_overrides_flags(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"n_speakers": 3}')
        x, y = tmp_path / "x.jsonl", tmp_path / "y.jsonl"
        assert main(["synth", "--n-speakers", "5", "--config", str(config),
                     "--out-x", str(x), "--out-y", str(y)]) == 0
        assert len(load_embeddings(x).speaker_ids()) == 3

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
    prof = {v: dict(zip(c.profiles.speakers, c.profiles.vectors))
            for v, c in corpora.items()}
    run = {v: {r.utterance_id: r.vector for r in c.records if r.split == "runtime"}
           for v, c in corpora.items()}

    def same(vectors):
        return vectors

    def net(variant, name):
        # one forward over every vector of the side, as the CLI maps them: a
        # float32 network rounds a row alone (GEMV) otherwise than in a block
        mlp = getattr(load_checkpoint(paths[variant]), name)
        return lambda vectors: dict(zip(vectors, forward(mlp, np.stack(list(
            vectors.values())))[0]))

    def block(side):
        fusion = load_fusion(paths["fusion"])
        cols = fusion.m[:, :fusion.d] if side == 0 else fusion.m[:, fusion.d:]
        return lambda vectors: {key: cols @ v for key, v in vectors.items()}

    makers = {
        "logit-fused": lambda: (block(0), block(1)),
        "nessa-m1": lambda: (same, net("m1", "f1")),
        "nessa-m2": lambda: (net("m2", "f1"), same),
        "nessa-m3": lambda: (net("m3", "f1"), net("m3", "f2")),
    }
    maps = makers[scorer]() if scorer in makers else (same, same)
    views = {"cosine-sym-x": ("x", "x"), "cosine-sym-y": ("y", "y")}.get(scorer, ("x", "y"))
    p, r = maps[0](prof[views[0]]), maps[1](run[views[1]])
    return np.array([cosine_similarity(p[t.enroll_speaker_id], r[t.test_utterance_id])
                     for t in trials.trials])


def test_score_and_eval_build_no_trial(scored_fixture, tmp_path):
    """The CLI's request path reads, scores, writes and evaluates columns."""
    paths = scored_fixture
    scores, report = tmp_path / "scores.tsv", tmp_path / "report.json"
    built = AssertionError("a Trial was built")
    with mock.patch.object(data, "Trial", side_effect=built):
        assert main(["score", "--scorer", "nessa-m2", "--trials", str(paths["trials"]),
                     "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
                     "--checkpoint", str(paths["ckpt"]), "--out", str(scores)]) == 0
        assert main(["eval", "--scores", str(scores), "--scorer-id", "nessa-m2",
                     "--out", str(report)]) == 0
    assert scores.read_bytes() == paths["scores"].read_bytes()
    assert report.read_bytes() == paths["report"].read_bytes()


def test_logit_align_speaker_subsample(scored_fixture, tmp_path):
    """--n-speakers k fuses k of the 40 shared speakers, picked by --seed; a k
    of at least the shared count fuses them all, as 0 does."""
    paths = scored_fixture

    def fusion(k, seed):
        out = tmp_path / f"fusion_{k}_{seed}.json"
        assert main(["logit-align", "--profiles-x", str(paths["prof_x"]),
                     "--profiles-y", str(paths["prof_y"]), "--n-speakers", str(k),
                     "--seed", str(seed), "--out", str(out)]) == 0
        return load_fusion(out)

    picked = fusion(5, 3)
    assert picked.n_speakers == 5
    assert fusion(5, 3).m.tobytes() == picked.m.tobytes()
    assert fusion(5, 4).m.tobytes() != picked.m.tobytes()
    every = fusion(0, 3)
    assert every.n_speakers == 40
    for k in (40, 41):
        assert fusion(k, 3).m.tobytes() == every.m.tobytes()


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
            shared = load_profiles(paths["prof_x"]).speakers
            w_x = build_weight_matrix(load_profiles(paths["prof_x"]), shared)
            w_y = build_weight_matrix(load_profiles(paths["prof_y"]), shared)
            cx, cy = load_embeddings(paths["x"]), load_embeddings(paths["y"])
            profiles_x = build_all_profiles(cx, "X")
            prof_x = dict(zip(profiles_x.speakers, profiles_x.vectors))
            run_y = {r.utterance_id: r.vector for r in cy.records
                     if r.split == "runtime"}
            direct = [logit_score_direct(prof_x[t.enroll_speaker_id],
                                         run_y[t.test_utterance_id], w_x, w_y)
                      for t in scored.trials]
            assert np.max(np.abs(got - direct)) <= 1e-6


RECORD = ('{"speaker_id": "a", "utterance_id": "u1", "model_id": "X", '
          '"split": "enroll", "vector": %s}\n')


def without(path, key):
    obj = json.loads(path.read_text())
    del obj[key]
    return json.dumps(obj)


def shortened(path, key):
    obj = json.loads(path.read_text())
    obj[key] = obj[key][:-1]
    return json.dumps(obj)


def replaced(path, value, *keys):
    """The file's JSON with obj[keys[0]][keys[1]]... set to value."""
    obj = json.loads(path.read_text())
    inner = obj
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return json.dumps(obj)


def second_record(path):
    """The profiles file with its first line repeated under another utterance id."""
    text = path.read_text()
    return text + text.splitlines(keepends=True)[0].replace('"profile:', '"again:')


def runtime_rows(path):
    """The corpus file's first runtime record of each speaker."""
    rows = {}
    for line in path.read_text().splitlines(keepends=True):
        obj = json.loads(line)
        if obj["split"] == "runtime":
            rows.setdefault(obj["speaker_id"], line)
    return "".join(rows.values())


def beyond_float32(path):
    """The corpus file with the first value of its first runtime vector set to
    1e39, which float64 holds and float32 does not."""
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"split": "runtime"' in line)
    obj = json.loads(lines[i])
    obj["vector"][0] = 1e39
    lines[i] = json.dumps(obj) + "\n"
    return "".join(lines)


def zero_first_enrollment(path):
    """The corpus or profiles file with the vector of its first enrollment
    record made zero."""
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"split": "enroll"' in line)
    obj = json.loads(lines[i])
    obj["vector"] = [0.0] * len(obj["vector"])
    lines[i] = json.dumps(obj) + "\n"
    return "".join(lines)


def four_dim(path):
    """A fusion transform or checkpoint file made an identity map of dimension 4."""
    obj = json.loads(path.read_text())
    if "m" in obj:
        return json.dumps(dict(obj, d=4, m=np.eye(8).ravel().tolist()))
    return json.dumps(dict(obj, layer_dims=[4, 4], weights=[np.eye(4).ravel().tolist()],
                           biases=[[0.0] * 4]))


def raw_value(path, text, *keys):
    """The file's JSON with obj[keys[0]][keys[1]]... set to the raw JSON text."""
    return replaced(path, "@raw@", *keys).replace('"@raw@"', text)


def candidate_far(path, text):
    """The report with a relative_impact in its first per_far entry, whose
    target_far is set to the raw JSON text."""
    obj = json.loads(path.read_text())
    obj["per_far"][0].update(relative_impact=0.5, target_far="@raw@")
    return json.dumps(obj).replace('"@raw@"', text)


def repeated_far(path, key):
    """The report with a copy of its first per_far entry appended: two
    values of key, 0.5 and then 0.25, for one target_far."""
    obj = json.loads(path.read_text())
    first = obj["per_far"][0]
    first[key] = 0.5
    obj["per_far"].append(dict(first, **{key: 0.25}))
    return json.dumps(obj)


def one_error_line(capsys, argv, code=1):
    """Run argv; assert its exit code and that stderr holds exactly one
    `error:` line (and, for exit 1, nothing else). Returns that line."""
    capsys.readouterr()
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if "error:" in line]
    assert len(errors) == 1, err
    if code == 1:
        assert err == errors and err[0].startswith("error:")
    return errors[0]


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
        one_error_line(capsys, ["eval", "--scores", str(scores),
                                "--out", str(tmp_path / "r.json")])
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("which", ["empty", "disjoint"])
    def test_logit_align_without_shared_speakers_exit_one(self, scored_fixture, tmp_path,
                                                          capsys, which):
        paths = scored_fixture
        other = tmp_path / f"{which}.jsonl"
        # disjoint: every speaker renamed, with its profile:<speaker> utterance
        other.write_text("" if which == "empty"
                         else paths["prof_y"].read_text().replace('s0_', 't0_'))
        out = tmp_path / "fusion.json"
        line = one_error_line(capsys, ["logit-align", "--profiles-x", str(paths["prof_x"]),
                                       "--profiles-y", str(other), "--out", str(out)])
        assert str(paths["prof_x"]) in line and str(other) in line
        assert not out.exists()

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
        one_error_line(capsys, ["eval", "--scores", str(paths["scores"]),
                                "--baseline-report", str(base),
                                "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("option, content, code", [
        ("--embeddings", RECORD % '["a", "b"]', 1),
        ("--embeddings", RECORD % '["0.6", 0.5]', 1),
        ("--embeddings", RECORD % '[0.6, true]', 1),
        ("--embeddings", RECORD % '[]', 1),
        ("--embeddings", RECORD % "1.5", 1),
        ("--embeddings", RECORD % "[[1, 2], [3]]", 1),
        ("--embeddings", RECORD.encode() % b"[0.5, 1]" + b"\xff\n", 1),
        ("--embeddings", RECORD % ("[1" + "0" * 400 + ", 0.5]"), 1),
        # vectors that cannot be normalized: a zero row, a row whose norm
        # overflows, a speaker whose rows cancel, and a zero profile vector
        ("--embeddings", RECORD % "[0.0, 0.0]", 1),
        ("--embeddings", RECORD % "[1e300, 1e300]", 1),
        ("--embeddings", RECORD % "[1.0, 0.0]" + RECORD.replace('"u1"', '"u2"') % "[-1, 0]",
         1),
        ("--profiles-x", lambda paths: zero_first_enrollment(paths["prof_x"]), 1),
        ("--scores", b"a\tu1\ttarget\t0.5\n\xe9\tu2\timposter\t0.1\n", 1),
        ("--fusion", lambda paths: without(paths["fusion"], "m"), 1),
        ("--fusion", lambda paths: shortened(paths["fusion"], "m"), 1),
        ("--fusion", lambda paths: replaced(paths["fusion"], float("inf"), "m", 3), 1),
        ("--checkpoint", lambda paths: without(paths["m2"], "layer_dims"), 1),
        ("--checkpoint", '{"variant": "m2", ', 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], [0.0], "biases", 0), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], [0.0] * 3, "biases", 0), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], "tanh", "activation"), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], "relu",
                                                "output_activation"), 1),
        ("--checkpoint", lambda paths: shortened(paths["m2"], "weights"), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], [0.5] * 3, "weights", 1), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], float("nan"),
                                                "weights", 2, 0), 1),
        # json reads 1e999 (or Infinity) as inf, and int(inf) raises OverflowError
        ("--checkpoint", lambda paths: replaced(paths["m2"], 1e999, "trained_epochs"), 1),
        ("--config", "n_speakers = 10", 1),
        ("--config", '{"n_speakers": "ten"}', 1),
        ("--far", "abc", 2),
        # two targets of one report key: eval --baseline-report would refuse it
        ("--far", "0.5,0.5", 2),
        ("--far", "0.05,0.050", 2),
        # a target FAR outside (0, 1) has no FRR; 1e-400 reads as 0.0
        ("--far", "0", 2),
        ("--far", "0.1,1", 2),
        ("--far", "-0.5", 2),
        ("--far", "nan", 2),
        ("--far", "inf", 2),
        ("--far", "1e-400", 2),
        # numbers eval reads from other reports: finite, not bools, FRRs in [0, 1]
        ("--baseline-report", lambda paths: raw_value(paths["report"], "1e999",
                                                      "per_far", 0, "frr"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], '"0.5"',
                                                      "per_far", 0, "frr"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], "null",
                                                      "per_far", 0, "frr"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], "true",
                                                      "per_far", 0, "frr"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], "1" + "0" * 400,
                                                      "per_far", 0, "frr"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], "1.5",
                                                      "per_far", 0, "frr"), 1),
        ("--candidate-report", lambda paths: raw_value(paths["report"], "1e999",
                                                       "per_far", 0, "relative_impact"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], "true",
                                                      "per_far", 0, "target_far"), 1),
        ("--baseline-report", lambda paths: raw_value(paths["report"], '"0.125"',
                                                      "per_far", 0, "target_far"), 1),
        ("--candidate-report", lambda paths: candidate_far(paths["report"], "true"), 1),
        ("--baseline-report", lambda paths: repeated_far(paths["report"], "frr"), 1),
        ("--candidate-report", lambda paths: repeated_far(paths["report"],
                                                          "relative_impact"), 1),
        # bytes that are not UTF-8, on line 2: the error names the file and line
        ("--baseline-report", b'{"per_far":\n["\xff"]}\n', 1),
        ("--candidate-report", b'{"per_far":\n["\xff"]}\n', 1),
        ("--checkpoint", b'{"variant":\n"m\xff"}\n', 1),
        ("--fusion", b'{"d":\n"\xff"}\n', 1),
        ("--config", b'{"seed":\n"\xff"}\n', 1),
        # a report of the wrong shape is named as such, not as a missing key
        ("--baseline-report", "[]", 1),
        ("--baseline-report", '{"per_far": 3}', 1),
        ("--baseline-report", '{"per_far": [3]}', 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], "m4", "variant"), 1),
        # a fusion dimension that is not a whole number, and a scores file
        # with no score column
        ("--fusion", lambda paths: replaced(paths["fusion"], 8.5, "d"), 1),
        ("--scores", "a\tu1\ttarget\nb\tu2\timposter\n", 1),
        # a speaker with a second profile record, and a corpus for a profiles file
        ("--profiles-x", lambda paths: second_record(paths["prof_x"]), 1),
        ("--profiles-x", lambda paths: paths["x"].read_text(), 1),
        # artifacts of dimension 4 on corpora of dimension 8
        ("--fusion", lambda paths: four_dim(paths["fusion"]), 1),
        ("--checkpoint", lambda paths: four_dim(paths["m2"]), 1),
        # parameters that are not JSON numbers, and a float32 checkpoint's
        # value that float32 cannot hold
        ("--checkpoint", lambda paths: replaced(paths["m2"], True, "weights", 2, 0), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], "0.25", "weights", 2, 0), 1),
        ("--fusion", lambda paths: replaced(paths["fusion"], True, "m", 3), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], 3.5e38, "weights", 2, 0), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], 2.5, "trained_epochs"), 1),
        # one runtime row per speaker: a corpus, not a profile set
        ("--profiles-x", lambda paths: runtime_rows(paths["x"]), 1),
        # names a SynthConfig has that are not settings
        ("--config", '{"__doc__": "x"}', 1),
        ("--config", '{"__dataclass_fields__": {}}', 1),
        ("--config", '{"validate": 1}', 1),
        # loss settings that are not finite numbers, and a w on an m2 checkpoint
        ("--checkpoint", lambda paths: replaced(paths["m2"], [1], "alpha"), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], None, "beta"), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], True, "gamma"), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], "q", "w"), 1),
        ("--checkpoint", lambda paths: replaced(paths["m2"], 0.5, "w"), 1),
        # a seed no training can have drawn from
        ("--checkpoint", lambda paths: replaced(paths["m2"], -5, "seed"), 1),
        # a Y runtime value that is finite but beyond the float32 maps' range
        ("nessa-m1", lambda paths: beyond_float32(paths["y"]), 1),
        ("nessa-m3", lambda paths: beyond_float32(paths["y"]), 1),
    ], ids=["vector-strings", "vector-quoted-numbers", "vector-booleans", "vector-empty",
            "vector-scalar", "vector-ragged", "embeddings-not-utf8",
            "vector-int-too-large", "vector-zero", "vector-norm-overflows",
            "speaker-mean-zero", "profile-vector-zero", "scores-not-utf8", "fusion-without-m",
            "fusion-wrong-size", "fusion-non-finite", "checkpoint-without-layer-dims",
            "checkpoint-not-json", "checkpoint-bias-one-entry",
            "checkpoint-bias-three-entries", "checkpoint-activation-tanh",
            "checkpoint-output-relu", "checkpoint-layer-missing",
            "checkpoint-weight-wrong-size", "checkpoint-non-finite-weight",
            "checkpoint-epochs-overflow",
            "config-not-json", "config-wrong-type", "far-not-numbers", "far-repeated",
            "far-repeated-one-key", "far-zero", "far-one", "far-negative", "far-nan",
            "far-inf", "far-underflows-to-zero",
            "baseline-frr-overflow", "baseline-frr-string", "baseline-frr-null",
            "baseline-frr-bool", "baseline-frr-int-too-large", "baseline-frr-above-one",
            "candidate-impact-overflow", "baseline-target-far-bool",
            "baseline-target-far-string", "candidate-target-far-bool",
            "baseline-target-far-repeated", "candidate-target-far-repeated",
            "baseline-report-not-utf8", "candidate-report-not-utf8",
            "checkpoint-not-utf8", "fusion-not-utf8", "config-not-utf8",
            "baseline-report-mistyped", "baseline-per-far-mistyped",
            "baseline-per-far-entry-mistyped", "checkpoint-unknown-variant",
            "fusion-fractional-d", "scores-unscored", "profiles-repeated-speaker",
            "profiles-whole-corpus", "fusion-other-dimension",
            "checkpoint-other-dimension", "checkpoint-boolean-weight",
            "checkpoint-quoted-weight", "fusion-boolean-entry",
            "checkpoint-float32-overflow", "checkpoint-fractional-epochs",
            "profiles-runtime-rows", "config-doc-key", "config-fields-key",
            "config-method-key", "checkpoint-alpha-list", "checkpoint-beta-null",
            "checkpoint-gamma-boolean", "checkpoint-quoted-w", "checkpoint-m2-with-w",
            "checkpoint-negative-seed", "runtime-beyond-float32-m1",
            "runtime-beyond-float32-m3"])
    def test_malformed_input_one_error_line(self, scored_fixture, tmp_path, capsys,
                                            request, option, content, code):
        paths = scored_fixture
        bad = tmp_path / "bad_input"
        content = content(paths) if callable(content) else content or ""
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        out = str(tmp_path / "out")

        def nessa_score(variant, out):  # with bad as the Y corpus
            return ["score", "--scorer", f"nessa-{variant}", "--checkpoint",
                    str(paths[variant]), "--trials", str(paths["trials"]),
                    "--corpus-x", str(paths["x"]), "--corpus-y", str(bad), "--out", out]

        corpora = ["--trials", str(paths["trials"]), "--corpus-x", str(paths["x"]),
                   "--corpus-y", str(paths["y"]), "--out", out]
        argv = {
            "--embeddings": ["profile", "--embeddings", str(bad), "--out", out],
            "--scores": ["eval", "--scores", str(bad), "--out", out],
            "--fusion": ["score", "--scorer", "logit-fused", "--fusion", str(bad)] + corpora,
            "--checkpoint": ["score", "--scorer", "nessa-m2", "--checkpoint", str(bad)]
                            + corpora,
            "--config": ["synth", "--config", str(bad), "--out-x", out, "--out-y", out],
            "--profiles-x": ["logit-align", "--profiles-x", str(bad),
                             "--profiles-y", str(paths["prof_y"]), "--out", out],
            "--far": ["eval", "--scores", str(paths["scores"]), "--far", content, "--out", out],
            "--baseline-report": ["eval", "--scores", str(paths["scores"]),
                                  "--baseline-report", str(bad), "--out", out],
            "--candidate-report": ["eval", "--scores", str(paths["scores"]),
                                   "--baseline-report", str(paths["report"]),
                                   "--candidate-report", str(bad), "--out", out],
            "nessa-m1": nessa_score("m1", out),
            "nessa-m3": nessa_score("m3", out),
        }[option]
        line = one_error_line(capsys, argv, code)
        if code == 1:
            assert "bad_input" in line
        case = request.node.callspec.id
        if "target-far" in case:
            assert "bad_input: target_far " in line
        if case in ("baseline-report-not-utf8", "candidate-report-not-utf8",
                    "checkpoint-not-utf8", "fusion-not-utf8", "config-not-utf8"):
            assert "bad_input:2: " in line
        if "mistyped" in case:
            assert "malformed report" in line and "missing" not in line
        if case == "checkpoint-unknown-variant":
            assert "bad_input: malformed checkpoint: unknown variant 'm4'" in line
        if case in ("profiles-repeated-speaker", "profiles-whole-corpus"):
            assert "bad_input: speaker 's0_00000' has more than one" in line
        if case == "profiles-runtime-rows":
            assert ("bad_input:1: utterance " in line
                    and "(runtime) of speaker 's0_00000' is not a profile row" in line)
        if case in ("checkpoint-boolean-weight", "checkpoint-quoted-weight"):
            assert "bad_input: malformed checkpoint: " in line and "weights 2 is not" in line
        if case.startswith("config-") and case.endswith("-key"):
            assert "bad_input: unknown config key " in line
        if case in ("checkpoint-alpha-list", "checkpoint-beta-null",
                    "checkpoint-gamma-boolean", "checkpoint-quoted-w", "checkpoint-m2-with-w"):
            assert "bad_input: malformed checkpoint: " in line and "must be finite" in line
        if case == "checkpoint-negative-seed":
            assert ("bad_input: malformed checkpoint: ValueError('seed -5 and trained_epochs "
                    in line and line.endswith(" must be whole numbers >= 0')"))
        if case == "fusion-boolean-entry":
            assert "bad_input: malformed fusion transform: " in line and "m is not" in line
        if case in ("vector-zero", "vector-norm-overflows"):
            norm = "0" if case == "vector-zero" else "inf"
            assert line.endswith(f"bad_input: utterance 'u1': cannot normalize a row "
                                 f"of norm {norm}")
        if case == "speaker-mean-zero":
            assert line.endswith("bad_input: the mean enrollment vector of speaker 'a': "
                                 "cannot normalize a row of norm 0")
        if case == "profile-vector-zero":
            assert line.endswith("bad_input: speaker 's0_00000': cannot normalize a row "
                                 "of norm 0")
        if case == "fusion-other-dimension":
            assert "bad_input: expected dimension 4 inputs" in line
        if case == "checkpoint-other-dimension":
            assert "bad_input: input of shape (" in line and "expects (n, 4)" in line
        if case.startswith("runtime-beyond-float32"):
            assert line.endswith("bad_input: Y runtime vectors hold a value beyond "
                                 "±3.403e+38, the range of float32 mapping")
            # m2 maps the X profiles only, so it scores the same files
            assert main(nessa_score("m2", str(tmp_path / "m2.tsv"))) == 0
        assert not (tmp_path / "out").exists()

    def test_overflowing_rows_exit_one(self, scored_fixture, tmp_path, capsys):
        # finite parameters whose mapped rows overflow: no score, where an
        # overflowed cosine once read 0, and no RuntimeWarning before the
        # one error line
        paths = scored_fixture
        ckpt = json.loads(paths["m2"].read_text())
        del ckpt["dtype"]  # full precision: float32 cannot hold the large weights
        last_large = dict(ckpt, weights=ckpt["weights"][:-1] + [
            [w * 1e200 for w in ckpt["weights"][-1]]])  # rows of about 1e200
        all_large = dict(ckpt, weights=[[w * 1e300 for w in layer]
                                        for layer in ckpt["weights"]])
        fusion = json.loads(paths["fusion"].read_text())
        fusion["m"] = [x * 1e300 for x in fusion["m"]]
        artifacts = {"nessa-m2": ("--checkpoint", [last_large, all_large]),
                     "logit-fused": ("--fusion", [fusion])}
        out = tmp_path / "scores.tsv"
        for scorer, (flag, objs) in artifacts.items():
            for obj in objs:
                artifact = tmp_path / "large.json"
                artifact.write_text(json.dumps(obj))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    line = one_error_line(capsys, [
                        "score", "--scorer", scorer, flag, str(artifact),
                        "--trials", str(paths["trials"]), "--corpus-x", str(paths["x"]),
                        "--corpus-y", str(paths["y"]), "--out", str(out)])
                assert "norm" in line
                assert not out.exists()

    def test_views_of_two_dimensions_exit_one(self, tmp_path, capsys):
        # X of dimension 8 and Y of dimension 16: the raw cosine has no meaning
        paths = {}
        for dim in ("8", "16"):
            root = tmp_path / f"d{dim}"
            root.mkdir()
            paths[dim] = {k: root / f"{k}.jsonl" for k in ("x", "y")}
            paths[dim]["trials"] = root / "trials.tsv"
            assert main(["synth", "--n-speakers", "6", "--latent-dim", "8",
                         "--embed-dim", dim, "--n-target", "4", "--n-imposter", "4",
                         "--out-x", str(paths[dim]["x"]), "--out-y", str(paths[dim]["y"]),
                         "--trials-out", str(paths[dim]["trials"])]) == 0
        x, y = paths["8"]["x"], paths["16"]["y"]
        profiles = {}
        for name, corpus in (("x", x), ("y", y)):
            profiles[name] = tmp_path / f"profiles_{name}.jsonl"
            assert main(["profile", "--embeddings", str(corpus),
                         "--out", str(profiles[name])]) == 0
        out = tmp_path / "out"
        for argv, (path_x, path_y) in [
            (["score", "--scorer", "cosine-asym-raw", "--trials", str(paths["16"]["trials"]),
              "--corpus-x", str(x), "--corpus-y", str(y)], (x, y)),
            (["train", "--variant", "m2", "--epochs", "1", "--steps", "2", "--batch", "4",
              "--hidden", "4", "--corpus-x", str(x), "--corpus-y", str(y)], (x, y)),
            (["logit-align", "--profiles-x", str(profiles["x"]),
              "--profiles-y", str(profiles["y"])], (profiles["x"], profiles["y"])),
        ]:
            line = one_error_line(capsys, argv + ["--out", str(out)])
            assert (f"{path_x} holds vectors of shape (" in line
                    and f", 8) and {path_y} of shape (" in line and line.endswith(", 16)"))
            assert not out.exists()

    def test_logit_align_negative_speaker_count_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        out = tmp_path / "fusion.json"
        line = one_error_line(capsys, ["logit-align", "--profiles-x", missing,
                                       "--profiles-y", missing, "--n-speakers", "-5",
                                       "--out", str(out)])
        assert "--n-speakers" in line and "missing" not in line
        assert not out.exists()

    @pytest.mark.parametrize("command, settings, seed", [
        ("synth", ["--seed", "-1"], -1),
        ("synth", ["--model-seed", "-1"], -1),
        ("synth", ["--trial-seed", "-3"], -3),
        ("synth", {"seed": -1}, -1),
        ("train", ["--seed", "-2"], -2),
        ("logit-align", ["--seed", "-4", "--n-speakers", "5"], -4),
    ], ids=["synth-seed", "synth-model-seed", "synth-trial-seed", "synth-config-seed",
            "train-seed", "logit-align-seed"])
    def test_negative_seed_exit_one(self, scored_fixture, tmp_path, capsys, command,
                                    settings, seed):
        paths = scored_fixture
        out = tmp_path / "out"
        missing = str(tmp_path / "missing.jsonl")
        if isinstance(settings, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(settings))
            settings = ["--config", str(config)]
        argv = {
            "synth": ["--n-speakers", "6", "--out-x", str(out), "--out-y", str(out),
                      "--trials-out", str(out), "--n-target", "4", "--n-imposter", "4"],
            # corpora that are not there: the seed is refused before any is read
            "train": ["--corpus-x", missing, "--corpus-y", missing, "--variant", "m2",
                      "--out", str(out)],
            "logit-align": ["--profiles-x", str(paths["prof_x"]),
                            "--profiles-y", str(paths["prof_y"]), "--out", str(out)],
        }[command]
        line = one_error_line(capsys, [command] + argv + settings)
        assert f"seed {seed} is negative" in line and "missing" not in line
        assert not out.exists()

    @pytest.mark.parametrize("command, settings, seed", [
        ("synth", ["--trial-seed", "-3"], -3),
        ("logit-align", ["--seed", "-4"], -4),
    ], ids=["synth-trial-seed-without-trials", "logit-align-seed-over-every-speaker"])
    def test_negative_seed_that_is_not_drawn_exit_one(self, scored_fixture, tmp_path, capsys,
                                                      command, settings, seed):
        # synth writes no trial list and logit-align fuses every speaker, so
        # neither draws from the seed; it is refused all the same, before any file
        paths = scored_fixture
        out = tmp_path / "out"
        argv = {
            "synth": ["--n-speakers", "6", "--out-x", str(out), "--out-y", str(out)],
            "logit-align": ["--profiles-x", str(paths["prof_x"]),
                            "--profiles-y", str(paths["prof_y"]), "--out", str(out)],
        }[command]
        line = one_error_line(capsys, [command] + argv + settings)
        assert line.endswith(f"seed {seed} is negative; a seed must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-target", "--n-imposter"])
    def test_synth_negative_trial_count_writes_nothing(self, tmp_path, capsys, flag):
        out = {k: tmp_path / f"{k}.jsonl" for k in ("x", "y")}
        trials = tmp_path / "trials.tsv"
        one_error_line(capsys, ["synth", "--n-speakers", "6", "--latent-dim", "4",
                                "--embed-dim", "4", "--out-x", str(out["x"]),
                                "--out-y", str(out["y"]), "--trials-out", str(trials),
                                "--n-target", "4", "--n-imposter", "4", flag, "-3"])
        assert not any(path.exists() for path in (*out.values(), trials))

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("flags, config, names", [
        (["--noise-x", "nan"], {"within_noise_x": float("nan")}, "within_noise_x"),
        (["--noise-y", "nan"], {"within_noise_y": float("nan")}, "within_noise_y"),
        (["--nonlinear-gain", "nan"], {"nonlinear_gain": float("nan")}, "nonlinear_gain"),
        (["--nonlinear-gain", "inf", "--distortion-x", "mlp_nonlinear"],
         {"nonlinear_gain": float("inf"), "distortion_x": "mlp_nonlinear"}, "nonlinear_gain"),
        (["--nonlinear-gain", "1e308", "--distortion-x", "mlp_nonlinear"],
         {"nonlinear_gain": 1e308, "distortion_x": "mlp_nonlinear"}, "nonlinear_gain"),
        # finite settings that spoil a view's rows: a noise whose product
        # overflows, and a gain of 0 that maps every row to 0
        (["--noise-x", "1e308"], {"within_noise_x": 1e308},
         "view X (distortion_x = 'orthogonal', within_noise_x = 1e+308): "
         "cannot normalize a row of norm inf"),
        (["--nonlinear-gain", "0", "--distortion-x", "mlp_nonlinear"],
         {"nonlinear_gain": 0, "distortion_x": "mlp_nonlinear"},
         "view X (distortion_x = 'mlp_nonlinear', within_noise_x = 0.3, nonlinear_gain = 0"),
        (["--nonlinear-gain", "0", "--distortion-y", "mlp_nonlinear"],
         {"nonlinear_gain": 0, "distortion_y": "mlp_nonlinear"},
         "view Y (distortion_y = 'mlp_nonlinear', within_noise_y = 0.15, nonlinear_gain = 0"),
    ], ids=["noise-x-nan", "noise-y-nan", "gain-nan", "gain-inf", "gain-overflows",
            "noise-overflows", "gain-zero-x", "gain-zero-y"])
    def test_synth_setting_out_of_range_writes_nothing(self, tmp_path, capsys, flags,
                                                       config, names, source):
        # one error line, no RuntimeWarning before it, and no file
        out = {k: tmp_path / f"{k}.jsonl" for k in ("x", "y")}
        trials = tmp_path / "trials.tsv"
        settings = flags
        if source == "config":
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))  # NaN and Infinity, as json writes them
            settings = ["--config", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = one_error_line(capsys, [
                "synth", "--n-speakers", "6", "--latent-dim", "4", "--embed-dim", "4",
                "--out-x", str(out["x"]), "--out-y", str(out["y"]),
                "--trials-out", str(trials)] + settings)
        assert names in line
        assert not any(path.exists() for path in (*out.values(), trials))

    def test_eval_candidate_report_needs_baseline(self, scored_fixture, tmp_path, capsys):
        # the candidate's impacts are compared with this run's, which need a baseline
        paths = scored_fixture
        out = tmp_path / "r.json"
        line = one_error_line(capsys, ["eval", "--scores", str(tmp_path / "missing.tsv"),
                                       "--candidate-report", str(paths["report"]),
                                       "--out", str(out)])
        assert "--candidate-report" in line and "--baseline-report" in line
        assert "missing" not in line
        assert not out.exists()

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

    def test_eval_unreachable_far_writes_null_threshold(self, tmp_path, capsys):
        # the top score is an imposter's, so a FAR target below 1/3 is met only
        # at the +inf threshold, which strict JSON writes as null
        scores = tmp_path / "scores.tsv"
        scores.write_text("a\tu1\ttarget\t0.1\na\tu2\ttarget\t0.2\na\tu3\ttarget\t0.3\n"
                          "b\tv1\timposter\t0.05\nb\tv2\timposter\t0.15\n"
                          "b\tv3\timposter\t0.9\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--scores", str(scores), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)
        entry = next(e for e in report["per_far"] if e["target_far"] == 0.05)
        assert entry["threshold"] is None
        assert (entry["far"], entry["frr"]) == (0.0, 1.0)

    def test_eval_stdout_prints_the_report_file(self, scored_fixture, tmp_path, capsys):
        paths = scored_fixture
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["eval", "--scores", str(paths["scores"]), "--scorer-id", "nessa-m2",
                     "--baseline-report", str(paths["report"]), "--stdout",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_eval_impact_beyond_float_exit_one(self, scored_fixture, tmp_path, capsys):
        # a subnormal baseline FRR is in [0, 1], but the impact against it
        # overflows: no report, one error line
        paths = scored_fixture
        base = tmp_path / "base.json"
        base.write_text(raw_value(paths["report"], "5e-324", "per_far", 0, "frr"))
        out = tmp_path / "report.json"
        line = one_error_line(capsys, ["eval", "--scores", str(paths["scores"]),
                                       "--baseline-report", str(base), "--out", str(out)])
        assert "not finite" in line
        assert not out.exists()


class TestOneModelPerCorpus:
    def commands(self, paths, corpus_x, out):
        corpora = ["--corpus-x", str(corpus_x), "--corpus-y", str(paths["y"])]
        return {
            "profile": ["profile", "--embeddings", str(corpus_x), "--out", out],
            "train": ["train", "--variant", "m2", "--epochs", "1", "--steps", "2",
                      "--batch", "8", "--hidden", "8", "--out", out] + corpora,
            "score": ["score", "--scorer", "cosine-sym-x", "--trials",
                      str(paths["trials"]), "--out", out] + corpora,
        }

    @pytest.mark.parametrize("command", ["profile", "train", "score"])
    def test_mixed_models_exit_one(self, scored_fixture, tmp_path, capsys, command):
        paths = scored_fixture
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(paths["x"].read_text() + paths["y"].read_text())
        out = tmp_path / "out"
        line = one_error_line(capsys, self.commands(paths, mixed, str(out))[command])
        assert "mixed.jsonl" in line and "'Y'" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["profile", "train"])
    def test_empty_file_exit_one(self, scored_fixture, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        one_error_line(capsys, self.commands(scored_fixture, empty, str(out))[command])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_empty_corpus_named(self, scored_fixture, tmp_path, capsys, command):
        # the empty file is --corpus-y for train (both views give profiles)
        # and --corpus-x for score (the profile view of cosine-sym-x)
        paths = scored_fixture
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        argv = self.commands(paths, empty, str(out))[command]
        if command == "train":
            argv[argv.index(str(empty))] = str(paths["x"])
            argv[argv.index(str(paths["y"]))] = str(empty)
        line = one_error_line(capsys, argv)
        assert str(empty) in line and "no enrollment records" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_zero_enrollment_vector_named(self, scored_fixture, tmp_path, capsys, command):
        # the zero row is in --corpus-y for train (whose X profiles build) and
        # in --corpus-x for score (the profile view of cosine-sym-x); the error
        # names that file and the utterance, as for profile (vector-zero above)
        paths = scored_fixture
        view = "y" if command == "train" else "x"
        zero = tmp_path / "zero.jsonl"
        zero.write_text(zero_first_enrollment(paths[view]))
        utterance = next(json.loads(line)["utterance_id"]
                         for line in zero.read_text().splitlines() if '"enroll"' in line)
        out = tmp_path / "out"
        argv = self.commands(paths, zero, str(out))[command]
        if command == "train":
            argv[argv.index(str(zero))] = str(paths["x"])
            argv[argv.index(str(paths["y"]))] = str(zero)
        line = one_error_line(capsys, argv)
        assert line.endswith(f"{zero}: utterance {utterance!r}: cannot normalize a row "
                             f"of norm 0")
        assert not out.exists()

    @pytest.mark.parametrize("command, scorer", [
        ("train", None), ("score", "cosine-asym-raw"), ("score", "nessa-m2")])
    def test_same_model_twice_exit_one(self, scored_fixture, tmp_path, capsys,
                                       command, scorer):
        paths = scored_fixture
        copy = tmp_path / "y_copy.jsonl"
        copy.write_text(paths["y"].read_text())
        out = tmp_path / "out"
        argv = self.commands(paths, copy, str(out))[command]
        if scorer is not None:
            argv[argv.index("cosine-sym-x")] = scorer
            argv += ["--checkpoint", str(paths["m2"])]
        line = one_error_line(capsys, argv)
        assert str(copy) in line and str(paths["y"]) in line and "'Y'" in line
        assert not out.exists()

    def test_logit_align_same_model_twice_exit_one(self, scored_fixture, tmp_path,
                                                   capsys):
        paths = scored_fixture
        out = tmp_path / "fusion.json"
        line = one_error_line(capsys, [
            "logit-align", "--profiles-x", str(paths["prof_x"]),
            "--profiles-y", str(paths["prof_x"]), "--out", str(out)])
        assert str(paths["prof_x"]) in line and "'X'" in line
        assert not out.exists()

    def test_same_model_twice_one_view_scorer_runs(self, scored_fixture, tmp_path):
        # a scorer that reads one view does not look at the other corpus
        paths = scored_fixture
        out = tmp_path / "sym_y.tsv"
        assert main(["score", "--scorer", "cosine-sym-y",
                     "--trials", str(paths["trials"]), "--corpus-x", str(paths["y"]),
                     "--corpus-y", str(paths["y"]), "--out", str(out)]) == 0
        assert out.exists()

    def test_profile_without_enrollment_exit_one(self, scored_fixture, tmp_path, capsys):
        runtime_only = tmp_path / "runtime.jsonl"
        runtime_only.write_text("".join(
            line + "\n" for line in scored_fixture["x"].read_text().splitlines()
            if '"split": "runtime"' in line))
        out = tmp_path / "out"
        one_error_line(capsys, ["profile", "--embeddings", str(runtime_only),
                                "--out", str(out)])
        assert not out.exists()


class TestTrainSettings:
    @pytest.mark.parametrize("flag, value", [
        ("--batch", "0"),
        ("--steps", "0"),
        ("--val-fraction", "-0.5"),
        ("--val-fraction", "1"),
        ("--val-fraction", "nan"),
        ("--lr", "nan"),
        ("--lr", "inf"),
        ("--alpha", "nan"),
        ("--beta", "inf"),
        ("--gamma", "nan"),
        ("--w-init", "nan"),
        ("--w-init", "1e300"),  # beyond float32, the dtype of training
        ("--lr", "0"),
        ("--decay", "0"),
        ("--decay", "1.5"),
        ("--hidden", "0"),
        ("--val-fraction", "0.99"),  # rounds to every speaker of the fixture
        ("--seed", "-2"),
    ])
    def test_invalid_setting_exit_one(self, scored_fixture, tmp_path, capsys,
                                      flag, value):
        paths = scored_fixture
        out = tmp_path / "ckpt.json"
        settings = {"--epochs": "1", "--steps": "2", "--batch": "8", "--hidden": "8",
                    "--val-fraction": "0.1", flag: value}
        argv = ["train", "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
                "--variant", "m2", "--out", str(out)]
        for option, setting in settings.items():
            argv += [option, setting]
        line = one_error_line(capsys, argv)
        if flag == "--hidden":
            assert "hidden" in line
        if value == "0.99":
            assert "val-fraction" in line
        if flag == "--seed":
            assert "seed -2 is negative" in line
        assert not out.exists()

    @pytest.mark.parametrize("val_fraction", ["0", "0.1"])
    def test_training_log_is_strict_json(self, scored_fixture, tmp_path, capsys,
                                         val_fraction):
        paths = scored_fixture
        log = tmp_path / "log.jsonl"
        assert main(["train", "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
                     "--variant", "m2", "--epochs", "2", "--steps", "2", "--batch", "8",
                     "--hidden", "8", "--val-fraction", val_fraction,
                     "--out", str(tmp_path / "ckpt.json"), "--log", str(log)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        entries = [json.loads(line, parse_constant=refuse)
                   for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in entries] == [0, 1]
        assert all((e["val_loss"] is None) == (val_fraction == "0") for e in entries)
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": train ")[0] for line in err] == ["epoch 0", "epoch 1"]
        assert all(line.endswith(" val none") == (val_fraction == "0") for line in err)

    @pytest.mark.parametrize("variant, flag, value, word", [
        ("m2", "--lr", "1e6", "diverged"),  # the loss overflows float32
        ("m3", "--w-init", "1e300", "w_init"),  # refused before training
    ])
    def test_diverged_training_exit_one(self, scored_fixture, tmp_path, capsys,
                                        variant, flag, value, word):
        # no checkpoint, no log, no RuntimeWarning: one error line
        paths = scored_fixture
        out, log = tmp_path / "ckpt.json", tmp_path / "log.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = one_error_line(capsys, [
                "train", "--corpus-x", str(paths["x"]), "--corpus-y", str(paths["y"]),
                "--variant", variant, "--epochs", "2", "--steps", "4", "--batch", "16",
                "--bank-size", "8", "--hidden", "8", flag, value,
                "--out", str(out), "--log", str(log)])
        assert word in line
        assert not out.exists() and not log.exists()

    def test_vectors_beyond_float32_exit_one(self, scored_fixture, tmp_path, capsys):
        # 40 Y runtime vectors scaled by 1e39 do not fit float32 training: an
        # error that names them, not a diverged loss
        paths = scored_fixture
        records = [json.loads(line) for line in paths["y"].read_text().splitlines()]
        runtime = [r for r in records if r["split"] == "runtime"]
        for record in runtime[-40:]:
            record["vector"] = [v * 1e39 for v in record["vector"]]
        corpus_y = tmp_path / "y_large.jsonl"
        corpus_y.write_text("".join(json.dumps(r) + "\n" for r in records))
        out, log = tmp_path / "ckpt.json", tmp_path / "log.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = one_error_line(capsys, [
                "train", "--corpus-x", str(paths["x"]), "--corpus-y", str(corpus_y),
                "--variant", "m1", "--epochs", "1", "--steps", "2", "--batch", "8",
                "--hidden", "8", "--out", str(out), "--log", str(log)])
        assert "diverged" not in line and "Y runtime vectors" in line and "float32" in line
        assert not out.exists() and not log.exists()

    def test_settings_checked_before_corpora_load(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        line = one_error_line(capsys, ["train", "--corpus-x", missing, "--corpus-y",
                                       missing, "--variant", "m2", "--hidden", "0",
                                       "--out", str(tmp_path / "ckpt.json")])
        assert "hidden" in line and "missing" not in line


# Every subcommand's flags at the time the synth and train settings flags were
# first built from SynthConfig and NessaConfig: flag -> (dest, default, type,
# choices, required). The type is the name of argparse's type function, "str"
# for a flag that keeps its text and None for a switch. config_hash hashes the
# dests and values, so a renamed dest changes the bytes of every artifact.
CLI_SURFACE = {
    "synth": {
        "--config": ("config", None, "str", None, False),
        "--n-speakers": ("n_speakers", 200, "int", None, False),
        "--n-enroll": ("n_enroll", 5, "int", None, False),
        "--n-runtime": ("n_runtime", 3, "int", None, False),
        "--latent-dim": ("latent_dim", 16, "int", None, False),
        "--embed-dim": ("embed_dim", 16, "int", None, False),
        "--noise-x": ("noise_x", 0.3, "float", None, False),
        "--noise-y": ("noise_y", 0.15, "float", None, False),
        "--distortion-x": ("distortion_x", "orthogonal", "str", None, False),
        "--distortion-y": ("distortion_y", "orthogonal", "str", None, False),
        "--nonlinear-gain": ("nonlinear_gain", 1.5, "float", None, False),
        "--seed": ("seed", 0, "int", None, False),
        "--model-seed": ("model_seed", None, "int", None, False),
        "--out-x": ("out_x", None, "str", None, True),
        "--out-y": ("out_y", None, "str", None, True),
        "--trials-out": ("trials_out", None, "str", None, False),
        "--n-target": ("n_target", 500, "int", None, False),
        "--n-imposter": ("n_imposter", 500, "int", None, False),
        "--trial-seed": ("trial_seed", None, "int", None, False),
    },
    "profile": {
        "--embeddings": ("embeddings", None, "str", None, True),
        "--out": ("out", None, "str", None, True),
    },
    "logit-align": {
        "--profiles-x": ("profiles_x", None, "str", None, True),
        "--profiles-y": ("profiles_y", None, "str", None, True),
        "--n-speakers": ("n_speakers", 0, "int", None, False),
        "--seed": ("seed", 0, "int", None, False),
        "--out": ("out", None, "str", None, True),
    },
    "train": {
        "--corpus-x": ("corpus_x", None, "str", None, True),
        "--corpus-y": ("corpus_y", None, "str", None, True),
        "--variant": ("variant", None, "str", ("m1", "m2", "m3"), True),
        "--alpha": ("alpha", 1.0, "float", None, False),
        "--beta": ("beta", 0.5, "float", None, False),
        "--gamma": ("gamma", 0.1, "float", None, False),
        "--w-init": ("w_init", 5.0, "float", None, False),
        "--bank-size": ("bank_size", 0, "int", None, False),
        "--epochs": ("epochs", 50, "int", None, False),
        "--steps": ("steps", 2000, "int", None, False),
        "--batch": ("batch", 1024, "int", None, False),
        "--hidden": ("hidden", 800, "int", None, False),
        "--lr": ("lr", 0.001, "float", None, False),
        "--decay": ("decay", 0.96, "float", None, False),
        "--val-fraction": ("val_fraction", 0.1, "float", None, False),
        "--seed": ("seed", 0, "int", None, False),
        "--out": ("out", None, "str", None, True),
        "--log": ("log", None, "str", None, False),
    },
    "score": {
        "--scorer": ("scorer", None, "str", ("cosine-sym-x", "cosine-sym-y",
                                             "cosine-asym-raw", "logit-fused", "nessa-m1",
                                             "nessa-m2", "nessa-m3"), True),
        "--trials": ("trials", None, "str", None, True),
        "--corpus-x": ("corpus_x", None, "str", None, True),
        "--corpus-y": ("corpus_y", None, "str", None, True),
        "--fusion": ("fusion", None, "str", None, False),
        "--checkpoint": ("checkpoint", None, "str", None, False),
        "--out": ("out", None, "str", None, True),
    },
    "eval": {
        "--scores": ("scores", None, "str", None, True),
        "--scorer-id": ("scorer_id", "system", "str", None, False),
        "--far": ("far", "0.125,0.05,0.02", "_far_list", None, False),
        "--baseline-report": ("baseline_report", None, "str", None, False),
        "--candidate-report": ("candidate_report", None, "str", None, False),
        "--stdout": ("stdout", False, None, None, False),
        "--out": ("out", None, "str", None, True),
    },
}

# Every flag that names a file, by hand: config_hash must not depend on them.
PATH_FLAGS = {
    "synth": ("--config", "--out-x", "--out-y", "--trials-out"),
    "profile": ("--embeddings", "--out"),
    "logit-align": ("--profiles-x", "--profiles-y", "--out"),
    "train": ("--corpus-x", "--corpus-y", "--out", "--log"),
    "score": ("--trials", "--corpus-x", "--corpus-y", "--fusion", "--checkpoint", "--out"),
    "eval": ("--scores", "--baseline-report", "--candidate-report", "--out"),
}


class TestCachedParser:
    """main parses every call with one parser, built once per process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_a_flag_does_not_outlive_its_call(self, scored_fixture, tmp_path):
        paths = scored_fixture
        one, plain = tmp_path / "one.json", tmp_path / "plain.json"
        for flags, out in ((["--far", "0.1"], one), ([], plain)):
            assert main(["eval", "--scores", str(paths["scores"]), *flags,
                         "--out", str(out)]) == 0
        fars = [[e["target_far"] for e in json.loads(path.read_text())["per_far"]]
                for path in (one, plain)]
        assert fars == [[0.1], list(DEFAULT_FAR_TARGETS)]

    def test_a_usage_error_leaves_the_next_call_whole(self, scored_fixture, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--far", "2", "--scores", "x", "--out", "y"])
        assert excinfo.value.code == 2
        assert main(["eval", "--scores", str(scored_fixture["scores"]),
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_a_command_replaced_after_the_first_call_runs(self, scored_fixture, tmp_path):
        # a tracer installs its cmd_* wrappers on the module after a first run
        argv = ["eval", "--scores", str(scored_fixture["scores"]),
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        with mock.patch("sidalign.cli.cmd_eval", return_value=7) as replaced_eval:
            assert main(argv) == 7
        (args,), _ = replaced_eval.call_args
        assert args.scores == str(scored_fixture["scores"])
        assert main(argv) == 0


class TestCliSurface:
    def test_flags_are_pinned(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {a.option_strings[0]: (
                   a.dest, a.default,
                   getattr(a.type, "__name__", None) or ("str" if a.nargs != 0 else None),
                   None if a.choices is None else tuple(a.choices), a.required)
                   for a in parser._actions if a.dest != "help"}
               for name, parser in sub.choices.items()}
        assert got == CLI_SURFACE

    @pytest.mark.parametrize("command", list(PATH_FLAGS))
    def test_config_hash_ignores_every_path_flag(self, command):
        required = {"train": ["--variant", "m3"], "score": ["--scorer", "nessa-m3"]}

        def config_hash_under(root):
            argv = [command, *required.get(command, [])]
            for flag in PATH_FLAGS[command]:
                argv += [flag, f"{root}/{flag[2:]}"]
            return _config_hash(build_parser().parse_args(argv))

        assert config_hash_under("/a") == config_hash_under("/b/c")

    def test_required_flags_alone_build_default_configs(self, tmp_path):
        # the config each command builds is caught where it is first used
        built = []

        def catch(cfg, *args):
            built.append(cfg)
            raise SidAlignError("caught")

        with mock.patch("sidalign.cli.generate", side_effect=catch):
            assert main(["synth", "--out-x", str(tmp_path / "x"),
                         "--out-y", str(tmp_path / "y")]) == 1
        with mock.patch.object(NessaConfig, "validate", autospec=True, side_effect=catch):
            assert main(["train", "--corpus-x", "x", "--corpus-y", "y", "--variant", "m1",
                         "--out", str(tmp_path / "ckpt")]) == 1
        assert built == [SynthConfig(), NessaConfig(variant="m1")]
