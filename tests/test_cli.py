"""End-to-end tests of the command-line driver."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepibp
from deepibp import __version__, dataio
from deepibp.cli import ConfigError, build_parser, load_config, main


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TINY_GENERATE = {
    "model": {"layer_widths": [2]},
    "experiment": {"n_dims": 6, "n_instances": 15},
}
TINY_INFER = {"inference": {"iterations": 4}}


# -- parser and config loading ------------------------------------------------

def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == f"deepibp {__version__}"


def test_load_config_rejects_unknown_sections(tmp_path):
    path = _write_config(tmp_path, {"mdoel": {}})
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)
    path = _write_config(tmp_path, {"model": {"alpha": 1.0}})
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    path = _write_config(tmp_path, {"model": []})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(path)
    assert load_config(None) == {}


# -- generate ------------------------------------------------------------------

def test_generate_writes_data_and_truth(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_GENERATE)
    out = tmp_path / "gen"
    rc = main(["generate", "--config", cfg, "--out", str(out), "--seed", "5"])
    assert rc == 0
    assert "6x15 dataset" in capsys.readouterr().out

    X = dataio.read_dataset_csv(out / "data.csv")
    assert X.shape == (6, 15)
    truth = dataio.read_json(out / "truth.json")
    assert truth["kind"] == "synthetic-dataset"
    assert truth["seed"] == 5
    assert truth["layer_widths"] == [2]
    (layer,) = truth["layers"]
    assert layer["k_true"] == 2
    assert len(layer["mask_rows"]) == 6 and len(layer["mask_rows"][0]) == 2
    assert np.asarray(layer["factors"]).shape == (2, 15)


def test_generate_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, TINY_GENERATE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
        outs.append(out)
    assert (outs[0] / "data.csv").read_bytes() == (outs[1] / "data.csv").read_bytes()
    assert (outs[0] / "truth.json").read_bytes() == (outs[1] / "truth.json").read_bytes()


def test_generate_zero_width_stack_emits_floor_noise(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"layer_widths": [0]},
        "experiment": {"n_dims": 4, "n_instances": 10},
    })
    out = tmp_path / "dark"
    assert main(["generate", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    X = dataio.read_dataset_csv(out / "data.csv")
    assert np.abs(X).max() < 1e-4


def test_generate_entropy_seed_is_recorded(tmp_path):
    out = tmp_path / "noseed"
    cfg = _write_config(tmp_path, TINY_GENERATE)
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    recorded = dataio.read_json(out / "truth.json")["seed"]
    assert isinstance(recorded, int) and 0 <= recorded < 2 ** 63


# -- infer ---------------------------------------------------------------------

def _generated_data(tmp_path):
    cfg = _write_config(tmp_path, TINY_GENERATE, name="gen.json")
    out = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    return str(out / "data.csv")


def test_infer_writes_trace_and_state(tmp_path, capsys):
    data = _generated_data(tmp_path)
    cfg = _write_config(tmp_path, TINY_INFER, name="inf.json")
    out = tmp_path / "fit"
    rc = main(["infer", data, "--config", cfg, "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert "inference done" in capsys.readouterr().out

    trace_lines = (out / "trace_layer1.csv").read_text().strip().split("\n")
    assert trace_lines[0] == "iteration,K,log_joint,accepted_adds,accepted_deletes"
    assert len(trace_lines) == 1 + 4
    state = dataio.read_json(out / "state.json")
    assert state["kind"] == "inference-state"
    assert state["seed"] == 3 and state["depth"] == 1
    (layer,) = state["layers"]
    assert layer["level"] == 1
    assert layer["k"] == len(layer["mask_rows"][0])
    assert len(np.asarray(layer["factors"])) == layer["k"]
    assert np.isfinite(layer["log_joint"])


def test_infer_rerun_is_byte_identical(tmp_path):
    data = _generated_data(tmp_path)
    cfg = _write_config(tmp_path, TINY_INFER, name="inf.json")
    blobs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(["infer", data, "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        blobs.append(((out / "trace_layer1.csv").read_bytes(), (out / "state.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_infer_depth_two_traces_both_layers(tmp_path):
    data = _generated_data(tmp_path)
    cfg = _write_config(
        tmp_path,
        {"inference": {"iterations": 3, "layerwise_outer_loops": 2}},
        name="deep.json",
    )
    out = tmp_path / "deep"
    rc = main(["infer", data, "--config", cfg, "--out", str(out), "--seed", "3", "--depth", "2"])
    assert rc == 0
    assert (out / "trace_layer1.csv").exists()
    assert (out / "trace_layer2.csv").exists()
    state = dataio.read_json(out / "state.json")
    assert [layer["level"] for layer in state["layers"]] == [1, 2]


def test_infer_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t0,t1\n1.0,oops\n")
    rc = main(["infer", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "bad.csv:2" in err
    # Header fields must read t0, t1, ... in order.
    bad.write_text("t0,t0,t7\n1.0,2.0,3.0\n")
    assert main(["infer", str(bad), "--out", str(tmp_path / "y")]) == 2
    assert "bad.csv:1" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()
    bad.write_text("t0,t1\n1.0,nan\n")
    assert main(["infer", str(bad), "--out", str(tmp_path / "z")]) == 2
    assert "bad.csv:2: non-finite" in capsys.readouterr().err


def test_infer_missing_file_exits_2(tmp_path, capsys):
    rc = main(["infer", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_infer_depth_zero_exits_2(tmp_path, capsys):
    data = _generated_data(tmp_path)
    rc = main(["infer", data, "--out", str(tmp_path / "x"), "--depth", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: --depth must be >= 1, got 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("infer", "inference", "iterations", 2.5),
    ("infer", "inference", "init_k", [2, 4.5]),
    ("generate", "model", "layer_widths", [2.5]),
    ("experiment", "experiment", "replicates", 1.5),
    ("experiment", "experiment", "k_true_values", [2.7]),
    ("experiment", "experiment", "inits", [{"kind": "fixed", "value": 2.5}]),
    ("experiment", "experiment", "inits", [{"kind": "uniform", "lo": 2, "hi": 4.5}]),
])
def test_non_integer_count_exits_2(tmp_path, capsys, command, section, key, value):
    cfg = _write_config(tmp_path, {section: {key: value}})
    args = [command, "--config", cfg, "--out", str(tmp_path / "x")]
    if command == "infer":
        args.insert(1, _generated_data(tmp_path))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad '{section}' section: {key} must be an integer")
    assert not (tmp_path / "x").exists()


def test_bad_config_exits_2(tmp_path, capsys):
    data = _generated_data(tmp_path)
    cfg = _write_config(tmp_path, {"inference": {"iterations": -3}}, name="neg.json")
    rc = main(["infer", data, "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "bad 'inference' section" in capsys.readouterr().err
    # The outer-loop tolerance is a fixed 1 nat, not a key.
    cfg = _write_config(tmp_path, {"inference": {"convergence_tol": "abc"}}, name="tol.json")
    rc = main(["infer", data, "--config", cfg, "--out", str(tmp_path / "x"), "--depth", "2"])
    assert rc == 2
    assert "unknown key(s) in section 'inference': convergence_tol" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["generate", "infer", "experiment"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    args = [command, "--out", str(tmp_path / "x"), "--seed", "-1"]
    if command == "infer":
        args.insert(1, _generated_data(tmp_path))
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "x").exists()


# -- experiment ------------------------------------------------------------------

TINY_EXPERIMENT = {
    "experiment": {
        "n_dims": 5,
        "n_instances": 10,
        "k_true_values": [2],
        "inits": [{"kind": "fixed", "value": 2}, {"kind": "uniform", "lo": 2, "hi": 4}],
        "iterations": 4,
        "replicates": 2,
    }
}


def test_experiment_report_layout(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_EXPERIMENT)
    out = tmp_path / "study"
    rc = main(["experiment", "--config", cfg, "--out", str(out), "--seed", "11"])
    assert rc == 0
    assert "4 trials summarized" in capsys.readouterr().out

    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "K_true,init,mean,variance"
    assert len(lines) == 3  # one row per (K_true, init) cell
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        "Ktrue2_init0_rep0.csv",
        "Ktrue2_init0_rep1.csv",
        "Ktrue2_init1_rep0.csv",
        "Ktrue2_init1_rep1.csv",
    ]
    manifest = dataio.read_json(out / "manifest.json")
    assert manifest["config"]["base_seed"] == 11
    assert manifest["inits"][1] == {"index": 1, "name": "random2to4", "kind": "uniform", "lo": 2, "hi": 4}


def test_experiment_reads_the_model_section(tmp_path):
    runs = {}
    for name, doc in (("default", TINY_EXPERIMENT),
                      ("sparse", {**TINY_EXPERIMENT, "model": {"alpha_ibp_per_layer": [0.2]}})):
        out = tmp_path / name
        assert main(["experiment", "--config", _write_config(tmp_path, doc, f"{name}.json"),
                     "--out", str(out), "--seed", "11"]) == 0
        runs[name] = out
    manifests = {name: dataio.read_json(out / "manifest.json") for name, out in runs.items()}
    assert manifests["sparse"]["hyper"]["alpha_ibp"] == 0.2
    assert manifests["default"]["hyper"]["alpha_ibp"] == 3.0
    assert "alpha_ibp" not in manifests["sparse"]["config"]
    traces = {name: [p.read_bytes() for p in sorted((out / "traces").iterdir())]
              for name, out in runs.items()}
    assert all(a != b for a, b in zip(traces["default"], traces["sparse"]))


def test_experiment_two_layer_model_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**TINY_EXPERIMENT, "model": {"layer_widths": [3, 2]}})
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "names 2 layers" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("jobs", ["-3", "0"])
def test_experiment_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path, {"experiment": {**TINY_EXPERIMENT["experiment"], "replicates": 1}})
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x"), "--jobs", jobs])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not (tmp_path / "x").exists()


def test_experiment_bad_init_kind_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment": {"inits": [{"kind": "warm"}]}
    })
    rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown init kind" in capsys.readouterr().err


@pytest.mark.parametrize("command, experiment, rc, message", [
    ("generate", {"n_dims": -1}, 2, "n_dims must be >= 1"),
    ("generate", {"n_dims": 0}, 2, "n_dims must be >= 1"),
    ("generate", {"n_instances": 0}, 2, "n_instances must be >= 1"),
    ("generate", {"n_dims": 1, "n_instances": 5}, 0, ""),
    ("experiment", {"k_true_values": [-2]}, 2, "k_true_values must be >= 0"),
    ("experiment", {"n_dims": 1}, 2, "experiment needs n_dims >= 2"),
    ("experiment", {"n_dims": 0}, 2, "n_dims must be >= 1"),
    ("experiment", {"k_true_values": [20]}, 2, "K_true 20 cannot be drawn over n_dims 5"),
    ("experiment", {"n_dims": 16, "k_true_values": [10], "replicates": 1}, 0, ""),
    ("generate", {"n_dims": 3, "n_instances": 5, "k_true_values": [10]}, 0, ""),
])
def test_experiment_dimensions_checked(tmp_path, command, experiment, rc, message):
    # A child process under a timeout, because a study with n_dims < 2,
    # or with a K_true that takes too many truth draws, once redrew its
    # truth forever. generate draws no study truth, so it takes any K_true.
    doc = {"experiment": {**TINY_EXPERIMENT["experiment"], **experiment}}
    args = [command, "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "x"), "--seed", "3"]
    proc = subprocess.run([sys.executable, "-m", "deepibp.cli", *args], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == rc, proc.stderr
    if rc:
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x").exists()
    elif command == "generate":
        dims = doc["experiment"]["n_dims"], doc["experiment"]["n_instances"]
        assert dataio.read_dataset_csv(tmp_path / "x" / "data.csv").shape == dims
    else:
        assert (tmp_path / "x" / "summary.csv").exists()


# -- validate --------------------------------------------------------------------

def test_validate_passes_and_perturbation_is_caught(capsys, request):
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("all checks passed")
    assert all(line.startswith("ok   ") for line in out.strip().split("\n")[:-1])

    request.getfixturevalue("spike_mass_too_high")
    rc = main(["validate"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert rc == 1
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith("FAIL spike mass closed form vs quadrature:")
    assert "validation FAILED" in lines[-1]


# -- installed entry point ---------------------------------------------------------

def _child_env():
    """os.environ with this checkout's src/ first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only the test process, so a
    child Python needs src/ on its own path to import deepibp.
    """
    src = str(Path(deepibp.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _declared_console_script():
    """The ``module:attr`` target of ``deepibp`` in pyproject.toml's [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["deepibp"]


def test_console_script_smoke():
    # Start the declared target as the pip/setuptools wrapper does, so the
    # check needs no install; also run an installed script wherever one is
    # on PATH.
    module, attr = _declared_console_script().split(":")
    wrapper = (f"import sys\nfrom {module} import {attr}\n"
               f"sys.argv[0] = 'deepibp'\nsys.exit({attr}())")
    runs = [([sys.executable, "-c", wrapper, "--version"], _child_env())]
    installed = shutil.which("deepibp")
    if installed:
        runs.append(([installed, "--version"], None))
    for cmd, env in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"deepibp {__version__}"


def test_import_loads_no_scipy():
    # scipy.special costs about 0.3 s of import, and no command needs
    # scipy.  The quadrature and finite-limit checks of validate load
    # none.
    code = ("import sys, deepibp, deepibp.cli\n"
            "from deepibp import oracle\n"
            "for check in (oracle._check_spike_mass, oracle._check_slab_density,\n"
            "              oracle._check_slab_marginal, oracle._check_ibp_finite_limit):\n"
            "    assert check().passed, check.__name__\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_experiment_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: a whole study, manifest included,
    # runs without it.
    cfg = _write_config(tmp_path, TINY_EXPERIMENT)
    out = tmp_path / "study"
    code = ("import sys\n"
            "from deepibp.cli import main\n"
            f"assert main(['experiment', '--config', {cfg!r}, '--out', {str(out)!r}]) == 0\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].strip() == ""
    assert set(dataio.read_json(out / "manifest.json")["versions"]) == {"python", "numpy"}


def test_chain_checks_load_no_test_framework():
    # numpy.testing imports unittest and more, which would stay loaded
    # for the life of the process; the chain's own cache checks use
    # plain numpy comparisons.
    code = ("import sys\n"
            "import numpy as np\n"
            "from deepibp.inference import InferenceConfig, run_mh_layer\n"
            "from deepibp.model import LayerHyper\n"
            "rng = np.random.default_rng(3)\n"
            "hyper = LayerHyper(alpha_ibp=2.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0,\n"
            "                   sigma_floor=1e-6)\n"
            "state, _ = run_mh_layer(rng.standard_normal((4, 6)), InferenceConfig(iterations=3),\n"
            "                        hyper, rng=rng)\n"
            "state.check_consistency()\n"
            "print(' '.join(m for m in sys.modules if m.startswith(('numpy.testing', 'unittest'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
)
def test_demo_runs(demo):
    path = Path(__file__).resolve().parents[1] / "demos" / demo
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "deepibp.cli", "--version"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"deepibp {__version__}"
