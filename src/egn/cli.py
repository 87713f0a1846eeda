"""Command-line interface: gen, run, verify, relax, train, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import gen_xyz, parse_csv, verify_suite, weak_scaling
from .config import GEMNET, ModelConfig
from .params import ModelParams, init_params
from .system import format_xyz, parse_xyz, random_cloud
from .tasks import load_checkpoint, predict, relax, save_checkpoint, train_simple


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON model config path")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--workers", type=int, default=None, help="override the worker count")
    common.add_argument("--out", type=Path, default=None, help="output path")
    return common


def _resolve_config(args) -> ModelConfig:
    if args.config is not None:
        config = ModelConfig.from_json(Path(args.config).read_text())
    else:
        config = ModelConfig()
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    if args.workers is not None:
        config = config.replace(workers=args.workers)
    return config


def _resolve_params(args, config: ModelConfig) -> ModelParams:
    if getattr(args, "params", None) is None:
        return init_params(config)
    params = load_checkpoint(args.params)
    return params if args.workers is None else params.at_workers(args.workers)


# Flags that take a float. argparse reads a token that starts with "-" as an
# option unless it is a plain negative number, so "-1e-3" after one of these
# would be an error where "-0.001" is a value.
_FLOAT_FLAGS = frozenset({"--lr", "--w-energy", "--w-forces", "--fmax", "--step-size", "--density"})


def _attach_float_values(argv: list[str]) -> list[str]:
    """Join each float flag to a following value that reads as a float, as
    ``--flag=value``, so every float, exponent and sign alike, parses the
    same way."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_FLAGS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(prog="egn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a random XYZ system")
    p_gen.add_argument("--n", type=int, default=20)
    p_gen.add_argument("--density", type=float, default=0.9)

    p_run = sub.add_parser("run", parents=[common], help="predict energy and forces")
    p_run.add_argument("xyz", type=Path)
    p_run.add_argument("--params", type=Path, default=None, help="checkpoint to load")

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p_verify.add_argument("--p-list", type=_parse_int_list, default=[1, 2, 3])
    p_verify.add_argument("--seeds", type=_parse_int_list, default=[0, 1])

    p_relax = sub.add_parser("relax", parents=[common], help="relax a structure")
    p_relax.add_argument("xyz", type=Path)
    p_relax.add_argument("--fmax", type=float, required=True, help="convergence force threshold")
    p_relax.add_argument("--max-steps", type=int, default=200)
    p_relax.add_argument("--step-size", type=float, default=0.05)
    p_relax.add_argument("--params", type=Path, default=None)
    p_relax.add_argument("--diagnostic", action="store_true", help="quadratic well model")

    p_train = sub.add_parser("train", parents=[common], help="fit a toy fixture")
    p_train.add_argument("--samples", type=int, default=5)
    p_train.add_argument("--steps", type=int, default=200)
    p_train.add_argument("--lr", type=float, default=0.1)
    p_train.add_argument("--w-energy", type=float, default=1.0)
    p_train.add_argument("--w-forces", type=float, default=0.0)

    p_bench = sub.add_parser("bench", parents=[common], help="weak-scaling benchmark CSV")
    p_bench.add_argument("--p-list", type=_parse_int_list, default=[1, 2, 4, 8])
    p_bench.add_argument("--n-atoms", type=int, default=40)
    p_bench.add_argument("--repeats", type=int, default=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a rejected input or an unreadable file prints one
    ``egn: error:`` line to stderr and returns 2."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_float_values(argv))
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"egn: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    config = _resolve_config(args)
    seed = config.seed

    if args.command == "gen":
        out = args.out or Path(f"cloud-{args.n}.xyz")
        gen_xyz(args.n, args.density, seed, out)
        print(f"wrote {out}")
        return 0

    if args.command == "run":
        system = parse_xyz(args.xyz.read_text())
        params = _resolve_params(args, config)
        energy, forces = predict(system, params)
        print(f"energy {energy:.12f}")
        for i, row in enumerate(forces):
            print(f"force {i} {row[0]:.12f} {row[1]:.12f} {row[2]:.12f}")
        return 0

    if args.command == "verify":
        results = verify_suite(config, args.seeds, args.p_list)
        failed = False
        for res in results:
            if res.passed:
                print(f"PASS {res.name}")
            else:
                failed = True
                print(f"FAIL {res.name}: {res.detail}")
        return 1 if failed else 0

    if args.command == "relax":
        system = parse_xyz(args.xyz.read_text())
        if args.diagnostic:
            config = config.replace(diagnostic=True, workers=1)
        params = _resolve_params(args, config)
        if args.diagnostic:
            params = ModelParams(config, params.arrays)
        result = relax(
            system, params, fmax_threshold=args.fmax,
            max_steps=args.max_steps, step_size=args.step_size,
        )
        status = "converged" if result.converged else "not converged"
        print(
            f"{status} after {result.steps} steps; "
            f"final max|f| {result.max_forces[-1]:.6e}, energy {result.energies[-1]:.12f}"
        )
        if args.out is not None:
            final = system.with_positions(result.trajectory[-1])
            args.out.write_text(format_xyz(final, comment=f"relaxed in {result.steps} steps"))
            print(f"wrote {args.out}")
        return 0

    if args.command == "train":
        for flag, value in (("--steps", args.steps), ("--samples", args.samples)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        if not np.isfinite(args.lr):
            raise ValueError(f"--lr must be finite, got {args.lr}")
        for flag, value in (("--w-energy", args.w_energy), ("--w-forces", args.w_forces)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{flag} must be finite and non-negative, got {value}")
        rng = np.random.default_rng(seed)
        teacher = init_params(config.replace(seed=seed + 1))
        dataset = []
        for _ in range(args.samples):
            system = random_cloud(int(rng.integers(4, 9)), 0.9, rng)
            energy, forces = predict(system, teacher, workers=1)
            dataset.append((system, energy, forces))
        student = init_params(config)
        fitted, history = train_simple(
            dataset, student, lr=args.lr, epochs=args.steps,
            w_energy=args.w_energy, w_forces=args.w_forces,
        )
        print(f"loss {history[0]:.6e} -> {history[-1]:.6e} over {len(history)} steps")
        if args.out is not None:
            save_checkpoint(fitted, args.out)
            print(f"wrote {args.out}")
        return 0

    if args.command == "bench":
        base = config if config.variant == GEMNET else config.replace(variant=GEMNET)
        report = weak_scaling(base, args.p_list, n_atoms=args.n_atoms, repeats=args.repeats)
        text = report.to_csv()
        parse_csv(text)  # schema self-check
        if args.out is not None:
            args.out.write_text(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
