import re
import numpy as np
import pytest

from egn import bench, cli, runtime
from egn.bench import (
    CSV_HEADER,
    gen_xyz,
    parse_csv,
    verify_suite,
    weak_scaling,
)
from egn.cli import main
from egn.config import VARIANTS, ModelConfig
from egn.graph import build_graph
from egn.partition import CommModel, CommVolume, comm_volume
from egn.runtime import Collective, CommRecord
from egn.system import parse_xyz

from conftest import DropLastCollective

SMALL = ModelConfig(blocks=1, d_u=2, d_v=3, d_e=4, d_t=2, d_bil=2, k_rbf=3, l_sbf=2)


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    gen_xyz(12, 0.9, seed=4, out_path=a)
    gen_xyz(12, 0.9, seed=4, out_path=b)
    assert a.read_bytes() == b.read_bytes()
    system = parse_xyz(a.read_text())
    assert system.n == 12


def test_gen_single_atom(tmp_path):
    path = tmp_path / "one.xyz"
    gen_xyz(1, 0.9, seed=0, out_path=path)
    assert parse_xyz(path.read_text()).n == 1


def test_gen_default_density_connected(tmp_path):
    path = tmp_path / "cloud.xyz"
    system = gen_xyz(20, 0.9, seed=3, out_path=path)
    topo, _ = build_graph(system, cutoff=1.5)
    assert topo.num_edges > 0
    # connectivity: breadth-first reach from node 0 touches every node
    adj = [[] for _ in range(topo.num_nodes)]
    for s, r in zip(topo.edge_src, topo.edge_recv):
        adj[s].append(r)
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for node in frontier:
            for other in adj[node]:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    assert len(seen) == topo.num_nodes


def test_verify_suite_passes_on_small_config():
    results = verify_suite(SMALL, seeds=[0], p_list=[1, 2])
    assert all(res.passed for res in results), [(r.name, r.detail) for r in results]
    names = [res.name for res in results]
    assert "parallel-vs-sequential" in names
    assert "comm-accounting" in names


def test_verify_suite_p1_only_trivially_passes():
    results = verify_suite(SMALL, seeds=[0], p_list=[1])
    equiv = next(r for r in results if r.name == "parallel-vs-sequential")
    assert equiv.passed


def test_verify_suite_detects_corrupted_reduction(monkeypatch):
    monkeypatch.setattr(runtime, "Collective", DropLastCollective)
    results = verify_suite(SMALL, seeds=[0], p_list=[2])
    equiv = next(r for r in results if r.name == "parallel-vs-sequential")
    assert not equiv.passed
    assert "P=2" in equiv.detail


class NudgeCollective(Collective):
    """An all-reduce whose every total is one ulp above the true sum."""

    def sum_slots(self, slots):
        return np.nextafter(super().sum_slots(slots), np.inf)


@pytest.mark.parametrize("variant", VARIANTS)
def test_verify_suite_one_worker_must_match_bit_for_bit(variant, monkeypatch):
    """One worker is the sequential engine: a one-ulp difference fails."""
    monkeypatch.setattr(runtime, "Collective", NudgeCollective)
    results = verify_suite(SMALL.replace(variant=variant), seeds=[0], p_list=[1])
    equiv = next(r for r in results if r.name == "parallel-vs-sequential")
    assert not equiv.passed
    assert equiv.detail.startswith("seed=0 P=1 ")


def test_verify_suite_runs_one_pass_per_seed_and_worker_count(monkeypatch):
    calls = []
    forward_backward = runtime.WorkerGroup.forward_backward

    def counted(group, *args, **kwargs):
        calls.append(group.workers)
        return forward_backward(group, *args, **kwargs)

    monkeypatch.setattr(runtime.WorkerGroup, "forward_backward", counted)
    results = verify_suite(SMALL, seeds=[0, 1], p_list=[1, 3])
    assert all(res.passed for res in results), [(r.name, r.detail) for r in results]
    assert calls == [1, 3, 1, 3]


def test_verify_suite_comm_accounting_fails_on_a_wrong_prediction(monkeypatch):
    def one_more(model, blocks):
        volume = comm_volume(model, blocks)
        return CommVolume(volume.per_block + 1, volume.total + blocks)

    monkeypatch.setattr(bench, "comm_volume", one_more)
    results = {res.name: res for res in verify_suite(SMALL, seeds=[0], p_list=[1, 2])}
    assert not results["comm-accounting"].passed
    assert results["comm-accounting"].detail.startswith("seed=0 P=1 ")
    assert results["parallel-vs-sequential"].passed


def test_verify_suite_triplet_isolation_reads_the_backward(monkeypatch):
    """A triplet-level record logged in the backward fails the check,
    though the numbers and the forward's records are untouched."""

    class TripletLeakCollective(Collective):
        def allreduce_sum(self, rank, buffer, **where):
            total = super().allreduce_sum(rank, buffer, **where)
            if total is not None and where["phase"] == "backward":
                self.log.records.append(
                    CommRecord("backward", where["block"], where["stage"], "triplet", 1)
                )
            return total

    monkeypatch.setattr(runtime, "Collective", TripletLeakCollective)
    results = {res.name: res for res in verify_suite(SMALL, seeds=[0], p_list=[2])}
    isolation = results.pop("no-triplet-communication")
    assert not isolation.passed
    assert "backward triplet" in isolation.detail
    assert all(res.passed for res in results.values()), results


def test_weak_scaling_structure():
    base = SMALL.replace(variant="gemnet-style")
    report = weak_scaling(base, [1, 2], n_atoms=12, warmup=1, repeats=3)
    assert len(report.rows) == 2
    assert report.rows[0].p == 1
    assert report.rows[0].efficiency == 1.0
    for row, p in zip(report.rows, [1, 2]):
        cfg = base.replace(workers=p, d_t=base.d_t * p, d_bil=base.d_bil * p)
        rng = np.random.default_rng(0)
        from egn.system import random_cloud

        system = random_cloud(12, 0.9, rng)
        topo, _ = build_graph(system, cfg.cutoff)
        expected = comm_volume(CommModel.from_graph(topo, cfg), cfg.blocks).total
        assert row.allreduced_elements == expected


def test_weak_scaling_requires_sorted_p_list():
    with pytest.raises(ValueError):
        weak_scaling(SMALL, [2, 1])
    with pytest.raises(ValueError):
        weak_scaling(SMALL, [2, 4])


def test_csv_roundtrip_lossless():
    base = SMALL.replace(variant="gemnet-style")
    report = weak_scaling(base, [1, 2], n_atoms=10, warmup=0, repeats=2)
    text = report.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    parsed = parse_csv(text)
    for original, parsed_row in zip(report.rows, parsed.rows):
        assert original == parsed_row


def test_parse_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv("nope\n1,2,3\n")


# -- CLI ---------------------------------------------------------------


def test_cli_gen_and_run(tmp_path, capsys):
    xyz = tmp_path / "sys.xyz"
    assert main(["gen", "--n", "6", "--seed", "2", "--out", str(xyz)]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.to_json())
    assert main(["run", str(xyz), "--config", str(cfg), "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "energy" in out
    assert out.count("force") == 6


def test_cli_verify_exit_codes(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.to_json())
    code = main(["verify", "--config", str(cfg), "--p-list", "1,2", "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS parallel-vs-sequential" in out

    monkeypatch.setattr(runtime, "Collective", DropLastCollective)
    code = main(["verify", "--config", str(cfg), "--p-list", "2", "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL parallel-vs-sequential" in out


@pytest.mark.parametrize("flag, name", [("--seeds", "seeds"), ("--p-list", "p_list")])
def test_cli_verify_rejects_empty_list(flag, name, tmp_path, capsys):
    """A check that ran no case does not pass: an empty list is an error."""
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.to_json())
    argv = ["verify", "--config", str(cfg), "--p-list", "1,2", "--seeds", "0"]
    argv[argv.index(flag) + 1] = ""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"egn: error: {name} must not be empty\n"


@pytest.mark.parametrize("variant", VARIANTS)
def test_cli_verify_passes_at_its_defaults(variant, tmp_path, capsys):
    """The gate as a user runs it: seeds 0,1 and P in 1,2,3."""
    cfg = tmp_path / "config.json"
    cfg.write_text(ModelConfig(variant=variant).to_json())
    assert main(["verify", "--config", str(cfg)]) == 0
    names = [
        "parallel-vs-sequential", "finite-difference-forces", "rigid-motion-invariance",
        "permutation-invariance", "comm-accounting", "no-triplet-communication",
    ]
    assert capsys.readouterr().out.splitlines() == [f"PASS {name}" for name in names]


@pytest.mark.parametrize(
    "argv",
    [["verify", "--p-list", "1,2", "--seeds", "1"], ["bench", "--p-list", "1", "--repeats", "1"]],
    ids=["verify", "bench"],
)
def test_cli_rejects_diagnostic_config_for_network_passes(argv, tmp_path, capsys):
    """verify and bench run the graph network, which a diagnostic config
    does not name: one error line, exit status 2, and no check reported."""
    cfg = tmp_path / "config.json"
    cfg.write_text(ModelConfig(diagnostic=True).to_json())
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("egn: error: a diagnostic config is the quadratic well")
    assert captured.err.count("\n") == 1


def test_cli_relax_diagnostic(tmp_path, capsys):
    xyz = tmp_path / "dimer.xyz"
    xyz.write_text("2\ndimer\nH 0 0 0\nH 0 0 2.0\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(ModelConfig(cutoff=3.0).to_json())
    out_path = tmp_path / "relaxed.xyz"
    code = main([
        "relax", str(xyz), "--config", str(cfg), "--diagnostic",
        "--fmax", "1e-4", "--out", str(out_path),
    ])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    relaxed = parse_xyz(out_path.read_text())
    d = np.linalg.norm(relaxed.positions[1] - relaxed.positions[0])
    assert abs(d - 1.5) < 1e-3


def test_cli_train_writes_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.replace(variant="gemnet-style").to_json())
    ckpt = tmp_path / "fit.egn"
    code = main([
        "train", "--config", str(cfg), "--samples", "2", "--steps", "5",
        "--lr", "0.02", "--w-forces", "0.5", "--out", str(ckpt),
    ])
    assert code == 0
    assert ckpt.exists() and ckpt.with_suffix(".egn.json").exists()
    assert "loss" in capsys.readouterr().out


def _assert_train_rejects(flag, value, error, tmp_path, capsys, monkeypatch):
    """Rejected with exit code 2 and one error line before the teacher
    labels a single sample."""
    labelled = []
    monkeypatch.setattr(cli, "predict", lambda *args, **kwargs: labelled.append(args))
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.to_json())
    argv = [
        "train", "--config", str(cfg), "--samples", "1", "--steps", "1", "--lr", "0.1",
        "--w-energy", "1", "--w-forces", "0",
    ]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"egn: error: {error}\n"
    assert labelled == []


def test_cli_train_rejects_zero_steps(tmp_path, capsys, monkeypatch):
    _assert_train_rejects(
        "--steps", "0", "--steps must be >= 1, got 0", tmp_path, capsys, monkeypatch
    )


def test_cli_train_rejects_zero_samples(tmp_path, capsys, monkeypatch):
    _assert_train_rejects(
        "--samples", "0", "--samples must be >= 1, got 0", tmp_path, capsys, monkeypatch
    )


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_cli_train_rejects_non_finite_lr(lr, tmp_path, capsys, monkeypatch):
    _assert_train_rejects(
        "--lr", lr, f"--lr must be finite, got {float(lr)}", tmp_path, capsys, monkeypatch
    )


@pytest.mark.parametrize("flag", ["--w-energy", "--w-forces"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.001"])
def test_cli_train_rejects_non_finite_weights(flag, value, tmp_path, capsys, monkeypatch):
    error = f"{flag} must be finite and non-negative, got {float(value)}"
    _assert_train_rejects(flag, value, error, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize(
    "argv, dest",
    [
        (["train", "--lr"], "lr"),
        (["train", "--w-energy"], "w_energy"),
        (["train", "--w-forces"], "w_forces"),
        (["relax", "x.xyz", "--fmax"], "fmax"),
        (["relax", "x.xyz", "--fmax", "1", "--step-size"], "step_size"),
        (["gen", "--density"], "density"),
    ],
)
@pytest.mark.parametrize("value", ["-1e-3", "-0.001", "-1E-3", "-inf"])
def test_cli_float_flags_take_negative_exponents(argv, dest, value, monkeypatch):
    """A negative float with an exponent is a value of every float flag, as
    a plain negative number is, whatever the check after parsing says."""
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(args) or 0)
    assert main([*argv, value]) == 0
    assert getattr(seen[0], dest) == float(value)


def test_cli_train_rejects_negative_weight_with_exponent(tmp_path, capsys, monkeypatch):
    error = "--w-energy must be finite and non-negative, got -0.001"
    _assert_train_rejects("--w-energy", "-1e-3", error, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("fmax", ["nan", "inf"])
def test_cli_relax_rejects_non_finite_fmax(fmax, tmp_path, capsys):
    xyz = tmp_path / "dimer.xyz"
    xyz.write_text("2\ndimer\nH 0 0 0\nH 0 0 2.0\n")
    assert main(["relax", str(xyz), "--fmax", fmax, "--max-steps", "3"]) == 2
    err = capsys.readouterr().err
    assert err == f"egn: error: fmax_threshold must be finite and positive, got {float(fmax)}\n"


@pytest.mark.parametrize("density", ["nan", "inf"])
def test_cli_gen_rejects_non_finite_density(density, tmp_path, capsys):
    out = tmp_path / "cloud.xyz"
    assert main(["gen", "--n", "5", "--density", density, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"egn: error: density must be finite and positive, got {float(density)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, name",
    [
        ('{"cutoff": NaN}', "cutoff"),
        ('{"cutoff": Infinity}', "cutoff"),
        ('{"cutoff": "1.5"}', "cutoff"),
        ('{"blocks": 2.5}', "blocks"),
        ('{"d_e": "8"}', "d_e"),
        ('{"workers": true}', "workers"),
        ('{"seed": null}', "seed"),
        ('{"diagnostic": 1}', "diagnostic"),
    ],
)
def test_cli_rejects_bad_config_values(text, name, tmp_path, capsys):
    """A config value of the wrong type or out of range is one error line
    naming the field, not a traceback or a run on a degenerate model."""
    xyz = tmp_path / "dimer.xyz"
    xyz.write_text("2\ndimer\nH 0 0 0\nH 0 0 1.0\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["run", str(xyz), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"egn: error: {name} must be")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["1", "null", "[1]", '"ab"'])
def test_config_from_json_rejects_non_objects(text):
    with pytest.raises(ValueError, match=f"config must be a JSON object, got {re.escape(text)}"):
        ModelConfig.from_json(text)


@pytest.mark.parametrize("text", ["1", "null", "[1]", '"ab"'])
def test_cli_rejects_non_object_config(text, tmp_path, capsys):
    """A config file that is not a JSON object is one error line and exit
    code 2, not a traceback."""
    xyz = tmp_path / "dimer.xyz"
    xyz.write_text("2\ndimer\nH 0 0 0\nH 0 0 1.0\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["run", str(xyz), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"egn: error: config must be a JSON object, got {text}\n"


def test_cli_relax_rejects_zero_step_size(tmp_path, capsys):
    xyz = tmp_path / "dimer.xyz"
    xyz.write_text("2\ndimer\nH 0 0 0\nH 0 0 2.0\n")
    assert main(["relax", str(xyz), "--fmax", "1e-4", "--step-size", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("egn: error: step_size must be finite and positive")
    assert err.count("\n") == 1


def test_cli_run_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.xyz"
    assert main(["run", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("egn: error: ") and str(missing) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "5"],
        ["verify", "--workers", "7"],
        ["verify", "--out", "v.txt"],
        ["run", "x.xyz", "--out", "f"],
        ["gen", "--workers", "9"],
        ["bench", "--workers", "5"],
    ],
    ids=lambda argv: argv[0] + argv[-2],
)
def test_cli_rejects_a_flag_its_subcommand_does_not_read(argv, tmp_path, capsys, monkeypatch):
    """Each subcommand takes only the flags it reads: argparse exits 2 on
    the rest, before anything runs or is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_bench_seed_draws_the_cloud(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.replace(variant="gemnet-style").to_json())
    elements = {}
    for seed in (0, 3):
        out = tmp_path / f"bench-{seed}.csv"
        assert main([
            "bench", "--config", str(cfg), "--p-list", "1", "--n-atoms", "10",
            "--repeats", "1", "--seed", str(seed), "--out", str(out),
        ]) == 0
        elements[seed] = parse_csv(out.read_text()).rows[0].allreduced_elements
    assert elements[0] != elements[3]


def test_cli_bench_rejects_zero_repeats(capsys):
    assert main(["bench", "--p-list", "1", "--n-atoms", "10", "--repeats", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "egn: error: repeats must be >= 1 and warmup >= 0, got 0 and 2\n"
    with pytest.raises(ValueError, match="warmup"):
        weak_scaling(SMALL, [1], n_atoms=10, warmup=-1)


def test_cli_bench_csv(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(SMALL.replace(variant="gemnet-style").to_json())
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--config", str(cfg), "--p-list", "1,2",
        "--n-atoms", "10", "--repeats", "2", "--out", str(out),
    ])
    assert code == 0
    report = parse_csv(out.read_text())
    assert len(report.rows) == 2
