"""The three benchmark workloads, written against sidalign's public functions.

Each workload derives all of its inputs from the workload seed. Calls into
sidalign go through the module attributes (``synth.generate``, not a name
bound here at import), so a traced run sees them at the same sites the
package itself uses.

A request is one trial list that a caller waits for, scored and evaluated
(ROC, EER, FRR at FAR): in ``nonlinear_experiment`` the trial list scored by
all nine systems, in ``score_eval`` one batch scored by all five scorers, in
``cli_pipeline`` one ``score`` command plus its ``eval``. ``request_*`` and
``trials_per_s`` measure requests; ``wall_s`` measures one whole repetition.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sidalign import align, cli, data, logit, metrics, synth
from sidalign.numerics import Prng
from stats import Tally
from tracing import Tracer

# Criterion 1 bound: fused scoring must match the direct oracle this closely.
FUSED_TOL = 1e-6
FUSED_SAMPLES = 16


@dataclass
class Rep:
    """What one repetition of a workload measured."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)  # one per request, s
    trials: int = 0  # trials scored and evaluated, summed over scorers
    eers: dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def operation(tally, tracer, name):
    """One counted operation; its spans share the operation's request id."""
    with tally.op(name) as op:
        tracer.request_id = tally.attempted
        try:
            yield op
        finally:
            tracer.request_id = -1


class Stopwatch:
    """Adds up timed segments of a repetition; checks run between them."""

    def __init__(self):
        self.total = 0.0

    @contextlib.contextmanager
    def segment(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.total += time.perf_counter() - t0


def warm_up(run) -> None:
    """Run ``run(tally, tracer)`` untraced; any failed check aborts the run."""
    tally = Tally()
    run(tally, Tracer())
    if tally.failed:
        raise RuntimeError("set-up failed: " + "; ".join(tally.problems))


def check_scored(op, ts, report) -> None:
    """Finite scores, and the report's operating points against a brute-force count."""
    scores = np.asarray(ts.scores, dtype=np.float64)
    op.check(len(scores) == len(ts.trials), "score count differs from trial count")
    op.check(bool(np.all(np.isfinite(scores))), "non-finite score")
    labels = ts.labels01()
    tar, imp = scores[labels == 1], scores[labels == 0]
    for entry in report["per_far"]:
        thr = entry["threshold"]
        far = float(np.count_nonzero(imp >= thr)) / len(imp)
        frr = float(np.count_nonzero(tar < thr)) / len(tar)
        op.check(far == entry["far"] and frr == entry["frr"],
                 f"ROC point at threshold {thr!r} disagrees with a brute-force count")
        op.check(far <= entry["target_far"], "operating point exceeds its FAR target")
    op.check(0.0 <= report["eer"] <= 1.0, f"EER {report['eer']!r} outside [0, 1]")


def check_fused(op, ts, prof, run, w_x, w_y, prng) -> None:
    """Sampled fused scores against the direct logit-space oracle."""
    picks = prng.choice(len(ts.trials), min(FUSED_SAMPLES, len(ts.trials)))
    worst = 0.0
    for i in picks:
        t = ts.trials[int(i)]
        direct = logit.logit_score_direct(prof[t.enroll_speaker_id],
                                          run[t.test_utterance_id], w_x, w_y)
        worst = max(worst, abs(direct - ts.scores[int(i)]))
    op.check(worst <= FUSED_TOL, f"fused vs direct score differ by {worst:.3g}")


def vector_maps(corpus):
    prof = {p.speaker_id: p.vector for p in corpus.profiles}
    run = {r.utterance_id: r.vector for r in corpus.records if r.split == "runtime"}
    return prof, run


def map_vectors(vectors: dict, fn) -> dict:
    keys = list(vectors)
    mapped = fn(np.stack([vectors[k] for k in keys]))
    return {k: mapped[i] for i, k in enumerate(keys)}


def nonlinear_synth(seed, model_seed, n_speakers, n_enroll, n_runtime, d=32):
    """Corpus config of the criterion 5-6 experiment (mlp_nonlinear views).

    Corpora that share ``model_seed`` share the X and Y view models, so an
    aligner fitted on one corpus applies to the other.
    """
    return synth.SynthConfig(
        n_speakers=n_speakers, n_enroll_utts=n_enroll, n_runtime_utts=n_runtime,
        latent_dim=d, embed_dim=d, within_noise_x=0.45, within_noise_y=0.25,
        distortion_x="mlp_nonlinear", distortion_y="mlp_nonlinear",
        nonlinear_gain=1.5, seed=seed, model_seed=model_seed)


def split_train_val(cx, cy, seed, val_fraction=0.1):
    speakers = cx.speaker_ids()
    order = Prng(seed + 7).permutation(len(speakers))
    n_val = int(val_fraction * len(speakers))
    val_ids = [speakers[int(i)] for i in order[:n_val]]
    train_ids = [speakers[int(i)] for i in order[n_val:]]
    return (align.PairedData(cx, cy, train_ids), align.PairedData(cx, cy, val_ids))


def fusion_over(cx, cy, n_bank):
    profs_x = data.build_all_profiles(cx, "X")
    profs_y = data.build_all_profiles(cy, "Y")
    order = [p.speaker_id for p in profs_x][:n_bank]
    w_x = logit.build_weight_matrix(profs_x, order)
    w_y = logit.build_weight_matrix(profs_y, order)
    return logit.compute_fusion_transform(w_x, w_y), w_x, w_y


def aligner_configs(seed, epochs, steps, batch, hidden, bank):
    common = dict(epochs=epochs, steps_per_epoch=steps, batch_size=batch,
                  hidden=hidden, seed=seed)
    return {
        "m1": align.NessaConfig(variant="m1", **common),
        "m2": align.NessaConfig(variant="m2", **common),
        "m3": align.NessaConfig(variant="m3", bank_size=bank, **common),
        "m3_no_contrastive": align.NessaConfig(variant="m3", alpha=0.0,
                                               bank_size=bank, **common),
        "m3_no_anchors": align.NessaConfig(variant="m3", beta=0.0, gamma=0.0,
                                           bank_size=bank, **common),
    }


def score_with(ckpt, trials, px, ry):
    """Map the sides an aligner maps, then score with cosine."""
    if ckpt.variant == "m1":
        px, ry = px, map_vectors(ry, lambda m: align.map_runtime(ckpt, m))
    elif ckpt.variant == "m2":
        px = map_vectors(px, lambda m: align.map_profiles(ckpt, m))
    else:
        px = map_vectors(px, lambda m: align.map_profiles(ckpt, m))
        ry = map_vectors(ry, lambda m: align.map_runtime(ckpt, m))
    return metrics.score_trials(trials, metrics.cosine_scorer, px, ry)


class Workload:
    name = ""
    # Repetition time at this commit on a 2-core x86 box; fixes how many
    # repetitions a run of --seconds makes, so both sides of a comparison
    # measure the same work.
    nominal_rep_s = 1.0
    min_reps = 2
    # Set-ups per run; setup_s is their median.
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def reps_for(self, seconds: float) -> int:
        return max(self.min_reps, round(seconds / self.nominal_rep_s))

    def setup(self):
        raise NotImplementedError

    def rep(self, state, tally, tracer, index: int) -> Rep:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class NonlinearExperiment(Workload):
    """One seed of the criterion 5-6 experiment at reduced scale."""

    name = "nonlinear_experiment"
    nominal_rep_s = 8.5
    N_TRAIN, N_EVAL, N_BANK = 1000, 500, 1000

    def _experiment(self, tally, tracer, n_train, n_eval, n_bank, train_cfg,
                    n_trials) -> Rep:
        s = self.seed
        out = Rep()
        watch = Stopwatch()
        scoring = Stopwatch()  # the request: every system's score + evaluate
        prng = Prng(s + 17)

        def request(name, score):
            with operation(tally, tracer, f"score {name}") as op:
                with watch.segment(), scoring.segment():
                    ts = score()
                    report = metrics.evaluate(ts, name)
                out.trials += len(ts.trials)
                out.eers[name] = report["eer"]
                with tracer.paused():
                    check_scored(op, ts, report)
                return ts

        with operation(tally, tracer, "synth") as op:
            with watch.segment():
                cx_t, cy_t, _ = synth.generate(
                    nonlinear_synth(s * 10 + 1, 1000 + s, n_train, 25, 3))
                cx_e, cy_e, _ = synth.generate(
                    nonlinear_synth(s * 10 + 2, 1000 + s, n_eval, 25, 3))
                trials = synth.make_trials(cy_e, n_trials, n_trials, s * 10 + 3)
                px, rx = vector_maps(cx_e)
                py, ry = vector_maps(cy_e)
            op.check(len(trials.trials) == 2 * n_trials, "wrong trial count")

        request("sym_x", lambda: metrics.score_trials(trials, metrics.cosine_scorer, px, rx))
        request("sym_y", lambda: metrics.score_trials(trials, metrics.cosine_scorer, py, ry))
        request("raw", lambda: metrics.score_trials(trials, metrics.cosine_scorer, px, ry))

        with operation(tally, tracer, "fusion"):
            with watch.segment():
                fusion, w_x, w_y = fusion_over(cx_t, cy_t, n_bank)
        ts = request("logit", lambda: metrics.score_trials(
            trials, lambda p, r: logit.logit_score_fused_batch(p, r, fusion), px, ry))
        with operation(tally, tracer, "fused check") as op, tracer.paused():
            check_fused(op, ts, px, ry, w_x, w_y, prng)

        with operation(tally, tracer, "split"):
            with watch.segment():
                tp, vp = split_train_val(cx_t, cy_t, s)
        for name, cfg in aligner_configs(s, **train_cfg).items():
            with operation(tally, tracer, f"train {name}"):
                with watch.segment():
                    ckpt = align.train(cfg, tp, vp)
            request(name, lambda: score_with(ckpt, trials, px, ry))
        out.wall_s = watch.total
        out.latencies.append(scoring.total)
        return out

    def setup(self):
        # Warm-up at toy scale with the real layer shapes: first BLAS calls,
        # page faults, lazy imports.
        warm_up(lambda tally, tracer: self._experiment(
            tally, tracer, n_train=200, n_eval=40, n_bank=100,
            train_cfg=dict(epochs=1, steps=2, batch=64, hidden=256, bank=64),
            n_trials=100))
        return {"eers": None}

    def rep(self, state, tally, tracer, index):
        out = self._experiment(
            tally, tracer, self.N_TRAIN, self.N_EVAL, self.N_BANK,
            dict(epochs=2, steps=20, batch=256, hidden=256, bank=512), 1000)
        with tally.op("eer repeat") as op:
            if state["eers"] is None:
                state["eers"] = dict(out.eers)
            op.check(out.eers == state["eers"],
                     "EERs differ from the first repetition of the same seed")
        return out


# ---------------------------------------------------------------------------


SCORE_EVAL_SCORERS = ("cosine-asym-raw", "logit-fused", "nessa-m1", "nessa-m2", "nessa-m3")


class ScoreEval(Workload):
    """Closed-loop client sending mixed-size trial batches to a trained setup."""

    name = "score_eval"
    nominal_rep_s = 3.6
    min_reps = 3
    SMALL, LARGE = 2_000, 15_000
    # One repetition is a pass of eight small and four large requests in a
    # seeded order: a third of the requests are large, so the median is a
    # small request and the tail percentile a large one.
    PASS = (SMALL,) * 8 + (LARGE,) * 4
    TARGET_SHARE = 0.2

    def setup(self):
        s = self.seed
        cx_e, cy_e, _ = synth.generate(nonlinear_synth(s * 10 + 2, 1000 + s, 500, 8, 4))
        cx_t, cy_t, _ = synth.generate(nonlinear_synth(s * 10 + 1, 1000 + s, 1000, 5, 3))
        fusion, w_x, w_y = fusion_over(cx_t, cy_t, 1000)
        tp, vp = split_train_val(cx_t, cy_t, s)
        cfgs = aligner_configs(s, epochs=2, steps=10, batch=256, hidden=256, bank=512)
        ckpts = {v: align.train(cfgs[v], tp, vp) for v in ("m1", "m2", "m3")}
        px, _ = vector_maps(cx_e)
        # The m2/m3 property: profiles are mapped once, offline.
        prof = {
            "raw": px,
            "m2": map_vectors(px, lambda m: align.map_profiles(ckpts["m2"], m)),
            "m3": map_vectors(px, lambda m: align.map_profiles(ckpts["m3"], m)),
        }
        runtime = [r for r in cy_e.records if r.split == "runtime"]
        speakers = list(px)
        spk_index = {spk: i for i, spk in enumerate(speakers)}
        state = {
            "fusion": fusion, "w_x": w_x, "w_y": w_y, "ckpts": ckpts, "prof": prof,
            "speakers": speakers,
            "utt_ids": [r.utterance_id for r in runtime],
            "utt_vecs": np.stack([r.vector for r in runtime]),
            "utt_owner": np.array([spk_index[r.speaker_id] for r in runtime]),
        }
        self._request(state, self._make_request(state, 500, Prng(s)))
        return state

    def _make_request(self, state, n, prng):
        """A seeded trial batch: target share fixed, imposters from other speakers."""
        n_utts = len(state["utt_ids"])
        n_spk = len(state["speakers"])
        n_target = int(round(self.TARGET_SHARE * n))
        utt = prng.integers(0, n_utts, n)
        owner = state["utt_owner"][utt]
        shift = prng.integers(1, n_spk, n)
        enroll = np.where(np.arange(n) < n_target, owner, (owner + shift) % n_spk)
        trials = [
            data.Trial(state["speakers"][int(e)], state["utt_ids"][int(u)],
                       "target" if i < n_target else "imposter")
            for i, (e, u) in enumerate(zip(enroll, utt))
        ]
        used = np.unique(utt)
        runtime = {state["utt_ids"][int(u)]: state["utt_vecs"][int(u)] for u in used}
        return data.TrialSet(trials), runtime

    def _request(self, state, req):
        """Map the runtime side, score with every scorer and evaluate."""
        trials, run_y = req
        ckpts, prof, fusion = state["ckpts"], state["prof"], state["fusion"]
        run_m1 = map_vectors(run_y, lambda m: align.map_runtime(ckpts["m1"], m))
        run_m3 = map_vectors(run_y, lambda m: align.map_runtime(ckpts["m3"], m))
        plan = {
            "cosine-asym-raw": (metrics.cosine_scorer, prof["raw"], run_y),
            "logit-fused": (lambda p, r: logit.logit_score_fused_batch(p, r, fusion),
                            prof["raw"], run_y),
            "nessa-m1": (metrics.cosine_scorer, prof["raw"], run_m1),
            "nessa-m2": (metrics.cosine_scorer, prof["m2"], run_y),
            "nessa-m3": (metrics.cosine_scorer, prof["m3"], run_m3),
        }
        out = {}
        for scorer_id in SCORE_EVAL_SCORERS:
            fn, p, r = plan[scorer_id]
            ts = metrics.score_trials(trials, fn, p, r)
            out[scorer_id] = (ts, metrics.evaluate(ts, scorer_id))
        return out

    def rep(self, state, tally, tracer, index):
        out = Rep()
        pass_seed = self.seed * 1_000_003 + index
        prng = Prng(pass_seed)
        sizes = [self.PASS[int(i)] for i in prng.permutation(len(self.PASS))]
        for k, n in enumerate(sizes):
            req = self._make_request(state, n, prng)
            with operation(tally, tracer, f"request {index}.{k}") as op:
                t0 = time.perf_counter()
                results = self._request(state, req)
                dt = time.perf_counter() - t0
                out.latencies.append(dt)
                out.wall_s += dt
                out.trials += n * len(results)
                with tracer.paused():
                    for scorer_id, (ts, report) in results.items():
                        check_scored(op, ts, report)
                    ts = results["logit-fused"][0]
                    check_fused(op, ts, state["prof"]["raw"], req[1],
                                state["w_x"], state["w_y"], prng)
        return out


# ---------------------------------------------------------------------------


CLI_SCORERS = ("cosine-asym-raw", "cosine-sym-y", "logit-fused", "nessa-m2")


class CliPipeline(Workload):
    """The file-based pipeline, synth to eval, through ``sidalign.cli.main``."""

    name = "cli_pipeline"
    nominal_rep_s = 4.0
    # Its set-up is a short toy pipeline, so more samples to take the median of.
    setup_repeats = 15
    N_SPEAKERS, N_ENROLL, N_RUNTIME = 600, 5, 3
    N_TARGET, N_IMPOSTER = 1600, 4000

    def _pipeline(self, tally, tracer, root: Path, n_speakers, n_target,
                  n_imposter) -> Rep:
        s = self.seed
        out = Rep()
        root.mkdir(parents=True, exist_ok=True)
        f = {k: str(root / v) for k, v in {
            "x": "x.jsonl", "y": "y.jsonl", "trials": "trials.tsv",
            "px": "profiles_x.jsonl", "py": "profiles_y.jsonl",
            "fusion": "fusion.json", "ckpt": "ckpt.json"}.items()}
        n_trials = n_target + n_imposter

        def run(name, argv, check):
            with operation(tally, tracer, f"cli {name}") as op:
                err = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                dt = time.perf_counter() - t0
                out.wall_s += dt
                ok = op.check(rc == 0, f"exit code {rc}: {err.getvalue().strip()}")
                if ok:
                    with tracer.paused():
                        check(op)
                return dt

        def check_synth(op):
            for key in ("x", "y"):
                n = len(data.load_embeddings(f[key]).records)
                op.check(n == n_speakers * (self.N_ENROLL + self.N_RUNTIME),
                         f"{key} corpus reloads with {n} records")
            n = len(data.load_trials(f["trials"]).trials)
            op.check(n == n_trials, f"trial list reloads with {n} trials")

        run("synth", [
            "synth", "--n-speakers", str(n_speakers), "--n-enroll", str(self.N_ENROLL),
            "--n-runtime", str(self.N_RUNTIME), "--latent-dim", "32", "--embed-dim", "32",
            "--distortion-x", "mlp_nonlinear", "--distortion-y", "mlp_nonlinear",
            "--noise-x", "0.45", "--noise-y", "0.25", "--seed", str(s),
            "--out-x", f["x"], "--out-y", f["y"], "--trials-out", f["trials"],
            "--n-target", str(n_target), "--n-imposter", str(n_imposter)], check_synth)
        for side in ("x", "y"):
            run("profile", ["profile", "--embeddings", f[side], "--out", f["p" + side]],
                lambda op, side=side: op.check(
                    len(data.load_profiles(f["p" + side])) == n_speakers,
                    f"profiles_{side} reload with the wrong count"))
        run("logit-align", ["logit-align", "--profiles-x", f["px"],
                            "--profiles-y", f["py"], "--out", f["fusion"]],
            lambda op: op.check(logit.load_fusion(f["fusion"]).n_speakers == n_speakers,
                                "fusion transform reloads with the wrong N"))
        run("train", [
            "train", "--corpus-x", f["x"], "--corpus-y", f["y"], "--variant", "m2",
            "--epochs", "2", "--steps", "10", "--batch", "64", "--hidden", "64",
            "--seed", str(s), "--out", f["ckpt"]],
            lambda op: op.check(align.load_checkpoint(f["ckpt"]).variant == "m2",
                                "checkpoint reloads with the wrong variant"))
        for scorer in CLI_SCORERS:
            scores, report = str(root / f"scores_{scorer}.tsv"), str(root / f"report_{scorer}.json")

            def check_scores(op, scores=scores):
                ts = data.load_trials(scores)
                if op.check(ts.scores is not None and len(ts.scores) == n_trials,
                            f"{scores} reloads without {n_trials} scores"):
                    op.check(bool(np.all(np.isfinite(ts.scores))), "non-finite score")

            def check_report(op, scorer=scorer, report=report):
                value = metrics.load_report(report)["eer"]
                op.check(0.0 <= value <= 1.0, f"EER {value!r} outside [0, 1]")
                out.eers[scorer] = value

            latency = run("score", [
                "score", "--scorer", scorer, "--trials", f["trials"],
                "--corpus-x", f["x"], "--corpus-y", f["y"], "--fusion", f["fusion"],
                "--checkpoint", f["ckpt"], "--out", scores], check_scores)
            latency += run("eval", ["eval", "--scores", scores, "--scorer-id", scorer,
                                    "--out", report], check_report)
            out.latencies.append(latency)
            out.trials += n_trials
        shutil.rmtree(root, ignore_errors=True)
        return out

    def setup(self):
        warm_up(lambda tally, tracer: self._pipeline(
            tally, tracer, self.workdir / "warmup",
            n_speakers=80, n_target=50, n_imposter=50))
        return {"eers": None}

    def rep(self, state, tally, tracer, index):
        out = self._pipeline(tally, tracer, self.workdir / f"rep{index}",
                             self.N_SPEAKERS, self.N_TARGET, self.N_IMPOSTER)
        with tally.op("eer repeat") as op:
            if state["eers"] is None:
                state["eers"] = dict(out.eers)
            op.check(out.eers == state["eers"],
                     "EERs differ from the first repetition of the same seed")
        return out


# ---------------------------------------------------------------------------


WORKLOADS = {w.name: w for w in (NonlinearExperiment, ScoreEval, CliPipeline)}
