"""Command-line surface: train, sweep, count-params, gradcheck, synth-data.

The data root defaults to the QUATCNN_DATA environment variable when
--data is omitted. All outputs are UTF-8 CSV/JSON.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from . import harness, layers, train as training

# the plan whose fields are the train and sweep defaults
_DEFAULT = harness.ExperimentPlan()
# the parameters whose defaults are the synth-data and gradcheck defaults
_SYNTH = inspect.signature(harness.generate_synthetic_dataset).parameters
_GRADCHECK = inspect.signature(training.run_gradient_verification).parameters


def _data_root(args) -> Path:
    root = args.data or os.environ.get("QUATCNN_DATA")
    if not root:
        raise ValueError("no dataset directory: pass --data or set QUATCNN_DATA")
    return Path(root)


def _add_data_args(p: argparse.ArgumentParser):
    p.add_argument("--data", help="dataset directory (default: $QUATCNN_DATA)")


def _add_train_args(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=_DEFAULT.epochs)
    p.add_argument("--batch-size", type=int, default=_DEFAULT.batch_size)
    p.add_argument("--input-size", type=int, default=_DEFAULT.input_size,
                   help="images are resized to this square size before encoding")
    p.add_argument("--no-augment", action="store_true",
                   help="skip the x4 flip expansion of the training split")
    p.add_argument("--no-stratify", action="store_true",
                   help="plain random split instead of per-class stratification")


def _plan(args, **fields) -> harness.ExperimentPlan:
    """The plan the arguments describe."""
    return harness.ExperimentPlan(
        epochs=args.epochs, base_seed=args.seed, batch_size=args.batch_size,
        input_size=args.input_size, augment=not args.no_augment,
        stratify=not args.no_stratify, **fields,
    )


def cmd_train(args) -> int:
    plan = _plan(args, configs=(args.config,), fractions=(args.test_fraction,), runs=1)
    manifest = harness.load_manifest(_data_root(args))
    (config_name,), (fraction,) = plan.configs, plan.fractions
    decoded = harness.load_decoded_images(manifest, plan.input_size)
    seed, config, train_inputs, test_inputs = harness._prepare_run(
        config_name, manifest, fraction, 0, plan, decoded
    )
    out = Path(args.out)  # made once the request is known to be good
    out.mkdir(parents=True, exist_ok=True)
    # Each file is written as <name>.part and renamed once all three are. A
    # failure or interruption before the renames leaves --out's earlier files
    # as they were; one between the three renames can leave two runs' files.
    staged = {name: out / f"{name}.part" for name in ("metrics.csv", "model.bin", "result.json")}
    try:
        model, metrics = training.train_model(
            config, train_inputs, epochs=plan.epochs, batch_size=plan.batch_size,
            seed=seed, metrics_path=staged["metrics.csv"],
        )
        layers.save_model(staged["model.bin"], model)
        test_acc = harness.evaluate(model, test_inputs)
        result = {
            "config": config_name, "test_fraction": fraction,
            "seed": seed, "epochs": plan.epochs,
            "train_accuracy": metrics[-1].train_acc if metrics else None,
            "test_accuracy": test_acc,
            "n_train": len(train_inputs), "n_test": len(test_inputs),
        }
        layers.atomic_write(staged["result.json"],
                            (json.dumps(result, indent=2, sort_keys=True) + "\n").encode("utf-8"))
        for name, path in staged.items():
            os.replace(path, out / name)
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)
    print(f"test accuracy {test_acc:.4f} "
          f"(train {result['train_accuracy']}, model -> {out / 'model.bin'})")
    return 0


def _sweep_plan(args) -> harness.ExperimentPlan:
    fractions = []
    for item in args.fractions.split(","):
        try:
            fractions.append(float(item))
        except ValueError:
            raise ValueError(f"--fractions: {item!r} is not a number") from None
    return _plan(args, configs=tuple(args.configs), fractions=tuple(fractions),
                 runs=args.runs, jobs=args.jobs)


def cmd_sweep(args) -> int:
    plan = _sweep_plan(args)
    manifest = harness.load_manifest(_data_root(args))
    report = harness.run_experiment(plan, manifest, args.out)
    print(f"\n{report.n_executed} runs executed, {report.n_skipped} resumed; "
          f"reports in {args.out}")
    print(f"{'config':<12} {'fraction':>8} {'mean':>8} {'std':>8} {'q25':>8} {'q75':>8}")
    for s in report.stats:
        print(f"{s.config:<12} {s.fraction:>8} {s.mean:>8.4f} {s.std:>8.4f} "
              f"{s.q25:>8.4f} {s.q75:>8.4f}")
    return 0


def cmd_count_params(args) -> int:
    for name in ("rvcnn-rgb", "qvcnn-rgb"):
        config = layers.config_from_name(name, args.input_size)
        model = layers.Model(config)
        print(f"{config.name} (input {args.input_size}x{args.input_size}):")
        for spec, layer in zip(config.layers, model.layers):
            if layer.param_count:
                print(f"  {spec.kind:<8} {layer.param_count:>10,}")
        print(f"  {'total':<8} {model.param_count:>10,}")
    return 0


def cmd_gradcheck(args) -> int:
    rows = training.run_gradient_verification(seed=args.seed)
    worst = 0.0
    for name, err in rows:
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"{name:<22} max rel err {err:.3e}  {status}")
        worst = max(worst, err)
    print(f"worst {worst:.3e} (bound 1e-4)")
    return 0 if worst < 1e-4 else 1


def cmd_synth_data(args) -> int:
    fixed = {} if args.fixed_value is None else {"value": (args.fixed_value,) * 2}
    paths = harness.generate_synthetic_dataset(
        args.out, n=args.n, size=args.size, seed=args.seed,
        healthy_hue=args.healthy_hue, blast_hue=args.blast_hue, **fixed,
    )
    print(f"wrote {len(paths)} images to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatcnn",
        description="quaternion vs real convolutional network experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model on one split")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--config", required=True, choices=layers.CONFIG_NAMES)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=_DEFAULT.base_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="repeated-split experiment over configurations")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--configs", nargs="+", default=list(_DEFAULT.configs),
                   choices=layers.CONFIG_NAMES)
    p.add_argument("--fractions", default=",".join(map(str, _DEFAULT.fractions)),
                   help="comma-separated test fractions")
    p.add_argument("--runs", type=int, default=_DEFAULT.runs, help="simulations per cell")
    p.add_argument("--jobs", type=int, default=_DEFAULT.jobs, help="concurrent runs")
    p.add_argument("--seed", type=int, default=_DEFAULT.base_seed, help="base seed of the sweep")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("count-params", help="print per-layer parameter counts")
    p.add_argument("--input-size", type=int,
                   default=layers.config_from_name("rvcnn-rgb").input_size)
    p.set_defaults(fn=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=_GRADCHECK["seed"].default)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("synth-data", help="generate the synthetic fixture dataset")
    p.add_argument("--n", type=int, default=_SYNTH["n"].default)
    p.add_argument("--size", type=int, default=_SYNTH["size"].default)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=_SYNTH["seed"].default)
    p.add_argument("--healthy-hue", type=float, default=_SYNTH["healthy_hue"].default)
    p.add_argument("--blast-hue", type=float, default=_SYNTH["blast_hue"].default)
    p.add_argument("--fixed-value", type=float, default=None,
                   help="pin the HSV value channel (hue-separable task)")
    p.set_defaults(fn=cmd_synth_data)
    return parser


def main(argv=None) -> int:
    """Run one command; the ValueError of any bad input, and the OSError
    of any failed file operation, exits as ``error: <message>``."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
