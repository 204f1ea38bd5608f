"""The in-process scoring recipe: seeded trial lists scored and evaluated
through the library API, then the sha256 of every score array and report.

    PYTHONPATH=src python tests/api_recipe.py

On two views of 300 speakers (mlp_nonlinear, d = 16) it trains small m1, m2
and m3 aligners and a fused logit transform, draws a 2,000- and a 15,000-trial
list with repeated ids, and scores each list seven ways: cosine-asym-raw,
logit-fused and nessa-m1/m2/m3 through ``score_trials`` with dicts of
pre-mapped vectors (the offline-profile setup), and logit-fused and nessa-m3
through ``score_trials`` with ``cosine_scorer`` and the side maps (the CLI's
path; these two keep their "score_cosine-" names, after the wrapper that once
made that call, so that the lines compare with older runs). Each scored list
is evaluated. Each list also makes a round trip through the trial files:
``save_trials``, ``load_trials``, ``save_scores`` of its cosine-asym-raw scores
and ``load_trials`` again. It prints "sha256  name" for the float64 bytes of
every score array, the sorted-key JSON of every report, both files and the
columns of both loaded lists, and of both views' vectors that ``generate``
draws for each distortion. Last, a 1,500-row corpus makes a round trip through
``save_embeddings`` and ``load_embeddings``, once with ASCII ids (read in bulk)
and once with non-ASCII ids (written escaped, so read line by line), and it
prints the digests of the loaded id columns and vectors. So two versions of
the code synthesise, score, evaluate, write and read alike exactly when they
print the same lines:

    diff <(PYTHONPATH=old/src python tests/api_recipe.py) \\
         <(PYTHONPATH=src python tests/api_recipe.py)

The name does not match test_*.py, so pytest does not collect it.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from sidalign import align, data, logit, metrics, synth
from sidalign.numerics import Prng

SIZES = (2_000, 15_000)
TARGET_SHARE = 0.2


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def setup():
    """Corpora, trained aligners and a fusion transform, all from fixed seeds."""
    cfg = synth.SynthConfig(
        n_speakers=300, n_enroll_utts=6, n_runtime_utts=4, latent_dim=16, embed_dim=16,
        within_noise_x=0.45, within_noise_y=0.25, distortion_x="mlp_nonlinear",
        distortion_y="mlp_nonlinear", nonlinear_gain=1.5, seed=11, model_seed=5)
    cx, cy, _ = synth.generate(cfg)
    profs_x = data.build_all_profiles(cx, cx.model_id)
    profs_y = data.build_all_profiles(cy, cy.model_id)
    order = [p.speaker_id for p in profs_x]
    fusion = logit.compute_fusion_transform(logit.build_weight_matrix(profs_x, order),
                                            logit.build_weight_matrix(profs_y, order))
    speakers = cx.speaker_ids()
    train_pair = align.PairedData(cx, cy, speakers[30:])
    val_pair = align.PairedData(cx, cy, speakers[:30])
    common = dict(epochs=2, steps_per_epoch=10, batch_size=128, hidden=64, seed=3)
    ckpts = {variant: align.train(align.NessaConfig(variant=variant, bank_size=256,
                                                    **common), train_pair, val_pair)
             for variant in ("m1", "m2", "m3")}
    prof = {p.speaker_id: p.vector for p in profs_x}
    rows = cy.rows("runtime")
    run = {cy.utterances[i]: cy.vectors[i] for i in rows}
    owners = [cy.speakers[i] for i in rows]
    return prof, run, owners, fusion, ckpts


def trial_list(speakers, utterances, owners, n, seed) -> data.TrialSet:
    """n trials drawn with replacement: a fixed share of targets, the rest
    imposters against another speaker, so ids repeat."""
    prng = Prng(seed)
    index = {spk: i for i, spk in enumerate(speakers)}
    utt = prng.integers(0, len(utterances), n)
    owner = np.array([index[owners[int(u)]] for u in utt])
    shift = prng.integers(1, len(speakers), n)
    n_target = int(round(TARGET_SHARE * n))
    enroll = np.where(np.arange(n) < n_target, owner, (owner + shift) % len(speakers))
    return data.TrialSet([
        data.Trial(speakers[int(e)], utterances[int(u)],
                   "target" if i < n_target else "imposter")
        for i, (e, u) in enumerate(zip(enroll, utt))])


def columns_sha256(ts: data.TrialSet) -> str:
    """The digest of a trial list's ids, index columns, target mask and scores."""
    h = hashlib.sha256(json.dumps([ts.enroll_keys, ts.test_keys]).encode())
    for column in (ts.enroll_rows, ts.test_rows, ts.target):
        h.update(np.ascontiguousarray(column).tobytes())
    if ts.scores is not None:
        h.update(np.asarray(ts.scores, dtype=np.float64).tobytes())
    return h.hexdigest()


def round_trip(ts: data.TrialSet, score, n: int) -> None:
    """Write and read the list as a trial file, then as a scores file."""
    with tempfile.TemporaryDirectory() as tmp:
        trials_path, scores_path = Path(tmp) / "trials.tsv", Path(tmp) / "scores.tsv"
        data.save_trials(ts, trials_path)
        loaded = data.load_trials(trials_path)
        data.save_scores(score(loaded), scores_path)
        rescored = data.load_trials(scores_path)
        for name, path, back in (("trials", trials_path, loaded),
                                 ("scores", scores_path, rescored)):
            print(f"{sha256(path.read_bytes())}  file/{n}/{name}.tsv")
            print(f"{columns_sha256(back)}  columns/{n}/{name}")


def mapped(vectors: dict, fn) -> dict:
    keys = list(vectors)
    return dict(zip(keys, fn(np.stack([vectors[k] for k in keys]))))


def generate_hashes() -> None:
    """The digest of each view's vectors, for each distortion of both views."""
    for kind in synth.DISTORTIONS:
        cfg = synth.SynthConfig(
            n_speakers=120, n_enroll_utts=5, n_runtime_utts=3, latent_dim=12,
            embed_dim=12, within_noise_x=0.45, within_noise_y=0.25, distortion_x=kind,
            distortion_y=kind, seed=23, model_seed=7)
        for view, corpus in zip("xy", synth.generate(cfg)[:2]):
            print(f"{sha256(corpus.vectors.tobytes())}  generate/{kind}/{view}")


def corpus_round_trips() -> None:
    """Save and load one corpus under ASCII and under non-ASCII ids."""
    n = 1_500
    vectors = Prng(31).standard_normal(n, 16)
    splits = [data.SPLITS[i % 4 == 0] for i in range(n)]
    for name, prefix in (("ascii", ""), ("escaped", "\u00e9\u4e2d-")):
        corpus = data.Corpus([f"{prefix}s{i // 5}" for i in range(n)],
                             [f"{prefix}u{i}" for i in range(n)], ["M"] * n, splits,
                             vectors)
        with tempfile.TemporaryDirectory() as tmp:
            data.save_embeddings(corpus, Path(tmp) / "c.jsonl")
            back = data.load_embeddings(Path(tmp) / "c.jsonl")
        ids = [back.speakers, back.utterances, back.model_id, back.enroll.tolist()]
        print(f"{sha256(json.dumps(ids).encode())}  corpus/{name}/ids")
        print(f"{sha256(back.vectors.tobytes())}  corpus/{name}/vectors")


def main() -> None:
    generate_hashes()
    prof, run, owners, fusion, ckpts = setup()
    m1, m2, m3 = (ckpts[v] for v in ("m1", "m2", "m3"))
    prof_m2 = mapped(prof, lambda v: align.map_profiles(m2, v))
    prof_m3 = mapped(prof, lambda v: align.map_profiles(m3, v))
    run_m1 = mapped(run, lambda v: align.map_runtime(m1, v))
    run_m3 = mapped(run, lambda v: align.map_runtime(m3, v))
    fused = lambda p, r: logit.logit_score_fused_batch(p, r, fusion)  # noqa: E731
    systems = {
        "cosine-asym-raw": lambda ts: metrics.score_trials(
            ts, metrics.cosine_scorer, prof, run),
        "logit-fused": lambda ts: metrics.score_trials(ts, fused, prof, run),
        "nessa-m1": lambda ts: metrics.score_trials(
            ts, metrics.cosine_scorer, prof, run_m1),
        "nessa-m2": lambda ts: metrics.score_trials(
            ts, metrics.cosine_scorer, prof_m2, run),
        "nessa-m3": lambda ts: metrics.score_trials(
            ts, metrics.cosine_scorer, prof_m3, run_m3),
        "score_cosine-logit-fused": lambda ts: metrics.score_trials(
            ts, metrics.cosine_scorer, prof, run, *logit.fusion_maps(fusion)),
        "score_cosine-nessa-m3": lambda ts: metrics.score_trials(
            ts, metrics.cosine_scorer, prof, run, *align.side_maps(m3)),
    }
    speakers, utterances = list(prof), list(run)
    for n in SIZES:
        ts = trial_list(speakers, utterances, owners, n, seed=n)
        for name, score in systems.items():
            scored = score(ts)
            scores = np.asarray(scored.scores, dtype=np.float64)
            report = metrics.evaluate(scored, name)
            print(f"{sha256(scores.tobytes())}  scores/{n}/{name}")
            print(f"{sha256(json.dumps(report, sort_keys=True).encode())}  "
                  f"report/{n}/{name}")
        round_trip(ts, systems["cosine-asym-raw"], n)
    corpus_round_trips()


if __name__ == "__main__":
    main()
