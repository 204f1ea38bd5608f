"""Command-line surface: synth, profile, logit-align, train, score, eval.

Every command is deterministic given --seed. Diagnostics go to stderr; exit
code 0 on success, 1 on data errors, 2 on usage errors. JSON artifacts embed
{tool_version, seed, config_hash} for exact replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .align import (
    NessaConfig,
    PairedData,
    load_checkpoint,
    save_checkpoint,
    save_training_log,
    side_maps,
    train,
)
from .data import (
    load_embeddings,
    load_profiles,
    load_trials,
    save_embeddings,
    save_profiles,
    save_scores,
    save_trials,
)
from .errors import ConfigInvalid, ParseError, SidAlignError
from .logit import (
    build_weight_matrix,
    compute_fusion_transform,
    fusion_maps,
    load_fusion,
    save_fusion,
)
from .metrics import evaluate, far_key, load_report, save_report, score_cosine
from .numerics import Prng
from .synth import SynthConfig, generate, make_trials

# Every scorer is cosine(enroll_map(profile), runtime_map(runtime)). Scorer id
# -> (profile view, runtime view, the artifact option whose file supplies the
# two side maps; None compares the views as they are).
SCORERS = {
    "cosine-sym-x": ("x", "x", None),
    "cosine-sym-y": ("y", "y", None),
    "cosine-asym-raw": ("x", "y", None),
    "logit-fused": ("x", "y", "fusion"),
    "nessa-m1": ("x", "y", "checkpoint"),
    "nessa-m2": ("x", "y", "checkpoint"),
    "nessa-m3": ("x", "y", "checkpoint"),
}


_PATH_ARGS = frozenset({
    "func", "config", "out", "out_x", "out_y", "trials_out", "embeddings",
    "profiles_x", "profiles_y", "corpus_x", "corpus_y", "trials", "fusion",
    "checkpoint", "log", "scores", "baseline_report", "candidate_report",
})


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of the behavioral settings only; file locations are excluded so
    the same logical run yields identical artifacts anywhere on disk."""
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in _PATH_ARGS}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _provenance(args) -> dict:
    return {
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "config_hash": _config_hash(args),
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_speakers=args.n_speakers,
        n_enroll_utts=args.n_enroll,
        n_runtime_utts=args.n_runtime,
        latent_dim=args.latent_dim,
        embed_dim=args.embed_dim,
        within_noise_x=args.noise_x,
        within_noise_y=args.noise_y,
        distortion_x=args.distortion_x,
        distortion_y=args.distortion_y,
        nonlinear_gain=args.nonlinear_gain,
        seed=args.seed,
        model_seed=args.model_seed,
    )
    if args.config:
        _apply_config(cfg, args.config)
    corpus_x, corpus_y, _ = generate(cfg)
    save_embeddings(corpus_x, args.out_x)
    save_embeddings(corpus_y, args.out_y)
    if args.trials_out:
        trials = make_trials(corpus_y, args.n_target, args.n_imposter,
                             args.trial_seed if args.trial_seed is not None else cfg.seed)
        save_trials(trials, args.trials_out)
    print(f"wrote {len(corpus_x.records)} records per view", file=sys.stderr)
    return 0


def _apply_config(cfg: SynthConfig, path) -> None:
    """Override cfg with a JSON config file's settings. A value must have its
    setting's type: an int is also a float, a bool is neither, and
    model_seed (default None) takes an int or null."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ParseError(f"{path}: expected a JSON object of settings")
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise SidAlignError(f"unknown config key {key!r}")
        default = getattr(SynthConfig(), key)
        kinds = (int, float) if isinstance(default, float) else type(default or 0)
        if not (isinstance(value, kinds) and not isinstance(value, bool)
                or value is None and default is None):
            raise ParseError(f"{path}: {key} = {value!r} has the wrong type")
        setattr(cfg, key, value)


def cmd_profile(args) -> int:
    profiles = load_embeddings(args.embeddings).profiles
    save_profiles(profiles, args.out)
    print(f"wrote {len(profiles)} profiles", file=sys.stderr)
    return 0


def cmd_logit_align(args) -> int:
    profiles_x = load_profiles(args.profiles_x)
    profiles_y = load_profiles(args.profiles_y)
    have_y = {p.speaker_id for p in profiles_y}
    shared = [p.speaker_id for p in profiles_x if p.speaker_id in have_y]
    if args.n_speakers and args.n_speakers < len(shared):
        prng = Prng(args.seed)
        picks = sorted(prng.choice(len(shared), args.n_speakers, replace=False))
        shared = [shared[int(i)] for i in picks]
    w_x = build_weight_matrix(profiles_x, shared)
    w_y = build_weight_matrix(profiles_y, shared)
    fusion = compute_fusion_transform(w_x, w_y)
    save_fusion(fusion, args.out, extra=_provenance(args))
    print(f"fusion transform: N={fusion.n_speakers} d={fusion.d} "
          f"jitter={fusion.jitter_applied:g}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    if not 0 <= args.val_fraction < 1:
        raise ConfigInvalid(f"--val-fraction {args.val_fraction} is not in [0, 1)")
    corpus_x = load_embeddings(args.corpus_x)
    corpus_y = load_embeddings(args.corpus_y)

    have_y = set(corpus_y.speaker_ids())
    all_speakers = [s for s in corpus_x.speaker_ids() if s in have_y]
    n_val = int(round(args.val_fraction * len(all_speakers)))
    prng = Prng(args.seed + 7)
    order = prng.permutation(len(all_speakers))
    val_ids = [all_speakers[int(i)] for i in order[:n_val]]
    train_ids = [all_speakers[int(i)] for i in order[n_val:]]

    train_pair = PairedData(corpus_x, corpus_y, train_ids)
    val_pair = PairedData(corpus_x, corpus_y, val_ids) if val_ids else None

    cfg = NessaConfig(
        variant=args.variant,
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        w_init=args.w_init,
        epochs=args.epochs,
        steps_per_epoch=args.steps,
        batch_size=args.batch,
        bank_size=args.bank_size,
        hidden=args.hidden,
        lr0=args.lr,
        lr_decay=args.decay,
        seed=args.seed,
    )
    ckpt = train(cfg, train_pair, val_pair)
    save_checkpoint(ckpt, args.out, extra=_provenance(args))
    if args.log:
        save_training_log(ckpt.log, args.log)
    for entry in ckpt.log:
        print(f"epoch {entry['epoch']}: train {entry['train_loss']:.6g} "
              f"val {entry['val_loss']:.6g}", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    scorer_id = args.scorer
    profile_view, runtime_view, source = SCORERS[scorer_id]
    enroll_map, runtime_map = _side_maps(scorer_id, source, args)
    paths = {"x": args.corpus_x, "y": args.corpus_y}
    corpora = {v: load_embeddings(paths[v])
               for v in dict.fromkeys((profile_view, runtime_view))}
    trials = load_trials(args.trials)
    profile_vectors = {p.speaker_id: p.vector for p in corpora[profile_view].profiles}
    runtime_vectors = {r.utterance_id: r.vector
                       for r in corpora[runtime_view].records if r.split == "runtime"}
    scored = score_cosine(trials, profile_vectors, runtime_vectors,
                          enroll_map, runtime_map)
    save_scores(scored, args.out)
    print(f"scored {len(scored.trials)} trials with {scorer_id}", file=sys.stderr)
    return 0


def _side_maps(scorer_id: str, source: str | None, args):
    """The (enrollment, runtime) maps a scorer reads from its artifact."""
    if source is None:
        return None, None
    path = getattr(args, source)
    if not path:
        raise SidAlignError(f"--{source} is required for the {scorer_id} scorer")
    if source == "fusion":
        return fusion_maps(load_fusion(path))
    ckpt = load_checkpoint(path)
    if ckpt.variant != scorer_id.split("-")[1]:
        raise SidAlignError(
            f"checkpoint variant {ckpt.variant!r} does not match {scorer_id}")
    return side_maps(ckpt)


def cmd_eval(args) -> int:
    trials = load_trials(args.scores)
    far_targets = [float(x) for x in args.far.split(",")]
    baseline_frrs = None
    candidate_impacts = None
    if args.baseline_report:
        baseline_frrs = _per_far(args.baseline_report, "frr", required=True)
    if args.candidate_report:
        candidate_impacts = _per_far(args.candidate_report, "relative_impact",
                                     required=False)
    report = evaluate(trials, args.scorer_id, far_targets,
                      baseline_frrs, candidate_impacts)
    report.update(_provenance(args))
    save_report(report, args.out)
    if args.stdout:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    print(f"eer {report['eer']:.4f}", file=sys.stderr)
    return 0


def _per_far(path, key: str, required: bool) -> dict:
    """{far key: entry[key]} over a saved report's per_far entries; entries
    without the key are skipped unless it is required."""
    report = load_report(path)
    try:
        return {far_key(e["target_far"]): e[key] for e in report["per_far"]
                if required or key in e}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed report, missing {exc}") from exc


def _far_list(text: str) -> str:
    """Check --far at parse time, so a bad list is a usage error; the text is
    kept as given because the config hash covers it."""
    try:
        [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    return text


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sidalign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a paired synthetic corpus")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--n-speakers", type=int, default=200)
    p.add_argument("--n-enroll", type=int, default=5)
    p.add_argument("--n-runtime", type=int, default=3)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--noise-x", type=float, default=0.3)
    p.add_argument("--noise-y", type=float, default=0.15)
    p.add_argument("--distortion-x", default="orthogonal")
    p.add_argument("--distortion-y", default="orthogonal")
    p.add_argument("--nonlinear-gain", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-seed", type=int,
                   help="seed for the distortion maps (defaults to --seed)")
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    p.add_argument("--trials-out")
    p.add_argument("--n-target", type=int, default=500)
    p.add_argument("--n-imposter", type=int, default=500)
    p.add_argument("--trial-seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="build voice profiles from a corpus")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("logit-align", help="build the fused logit transform")
    p.add_argument("--profiles-x", required=True)
    p.add_argument("--profiles-y", required=True)
    p.add_argument("--n-speakers", type=int, default=0,
                   help="subsample this many shared speakers (0 = all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_logit_align)

    p = sub.add_parser("train", help="train an embedding space aligner")
    p.add_argument("--corpus-x", required=True)
    p.add_argument("--corpus-y", required=True)
    p.add_argument("--variant", choices=("m1", "m2", "m3"), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--w-init", type=float, default=5.0)
    p.add_argument("--bank-size", type=int, default=0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch", type=int, default=1024)
    p.add_argument("--hidden", type=int, default=800)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--decay", type=float, default=0.96)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a trial list")
    p.add_argument("--scorer", choices=tuple(SCORERS), required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--corpus-x", required=True)
    p.add_argument("--corpus-y", required=True)
    p.add_argument("--fusion")
    p.add_argument("--checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="compute EER and FRR@FAR report")
    p.add_argument("--scores", required=True)
    p.add_argument("--scorer-id", default="system")
    p.add_argument("--far", default="0.125,0.05,0.02", type=_far_list)
    p.add_argument("--baseline-report")
    p.add_argument("--candidate-report")
    p.add_argument("--stdout", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SidAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
