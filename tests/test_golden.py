"""Pinned outputs of short fixed-seed CLI runs.

A change that leaves the RNG stream alone must leave these values as
they are.  Counts and masks are pinned exactly; log-joints and data sums
to a relative 1e-9, so a BLAS that rounds differently does not fail
them.  A change that moves the stream on purpose updates the values
here and records the old and new ones in CHANGES.md.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from deepibp import dataio, oracle
from deepibp.cli import main

STACK = {
    "model": {"layer_widths": [5, 3]},
    "experiment": {"n_dims": 16, "n_instances": 120},
    "inference": {"iterations": 10, "init_k": 4, "layerwise_outer_loops": 3},
}
STUDY = {
    "experiment": {
        "n_dims": 16,
        "n_instances": 120,
        "k_true_values": [3],
        "inits": [{"kind": "fixed", "value": 2}, {"kind": "uniform", "lo": 3, "hi": 6}],
        "iterations": 10,
        "replicates": 1,
    }
}

TRUTH_MASKS = [
    ["00000", "11111", "01000", "01100", "11100", "10100", "01100", "11100",
     "11100", "01000", "11100", "01001", "00000", "10100", "01100", "10100"],
    ["110", "110", "110", "110", "010"],
]
DATA_ABS_SUM = 1495.1615619214897

DEPTH1_LJ = [
    -454.48652992214863, -8.072337753190661, 264.65332712908923, 400.6036079416653,
    513.895783917229, 619.6831872092564, 647.0403503288346, 716.5493879210044,
    769.5371692341777, 824.2869820927243,
]
# (K, accepted_adds, accepted_deletes, log_joint) per trace, keyed by
# (depth, layer).
TRACES = {
    (1, 1): (
        [4] * 10,
        [0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 1, 1, 0, 0],
        DEPTH1_LJ,
    ),
    (2, 1): (
        [4] * 20 + [5, 4, 4, 4, 4, 4, 4, 4, 5, 4],
        [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 2, 0],
        [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1],
        DEPTH1_LJ + [
            1172.70492017809, 1209.5302900913184, 1262.1139702036558, 1259.3562788387433,
            1291.9227634866747, 1262.4850486876824, 1297.4982743891171, 1284.9002909333078,
            1295.7098805248759, 1297.1665632789297, 1151.768474280974, 1324.5773774936529,
            1329.5321576435915, 1320.2987366346342, 1347.0061551581823, 1360.5098894825048,
            1373.001047552336, 1384.2574832355901, 1195.4698988649145, 1359.3599229589843,
        ],
    ),
    (2, 2): (
        [4, 4, 4, 4, 4, 4, 4, 5] + [4] * 17 + [5, 4, 4, 4, 4],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        [
            -1072.8835052561965, -989.0333715558926, -941.7465182971291, -944.904823901414,
            -900.5434392843401, -932.9237849865222, -913.36196190279, -1086.0620986317451,
            -930.7333406540225, -940.1324283074587, -849.4797615440489, -870.0407449426166,
            -845.8239703325626, -846.0415281361857, -855.2196166738207, -860.7916089185184,
            -873.0796571764294, -834.4942574603298, -844.8437035993719, -886.5574853727704,
            -826.3433415024223, -774.9208130425335, -781.0004640350483, -793.299167861775,
            -837.0116408029737, -1005.6009407999093, -829.4644123206702, -788.021398097985,
            -802.5387449984198, -822.554079050393,
        ],
    ),
}
# Per-layer (K, log_joint) in state.json, bottom layer first.
STATES = {
    1: [(4, 824.2869820927243)],
    2: [(4, 1374.081594709566), (4, -822.554079050393)],
}
# (K, accepted_adds, accepted_deletes, last log_joint) per study trace.
STUDY_TRACES = {
    "Ktrue3_init0_rep0.csv": (
        [3] * 10, [1, 2, 1, 1, 0, 0, 1, 0, 0, 0], [0, 2, 1, 1, 0, 0, 1, 0, 0, 0], -2682.981112050239,
    ),
    "Ktrue3_init1_rep0.csv": (
        [5, 5, 5, 5, 5, 6, 5, 5, 5, 5], [0, 1, 0, 0, 0, 1, 1, 2, 1, 0], [0, 1, 0, 0, 0, 0, 2, 2, 1, 0],
        -2831.2357024990624,
    ),
}
SUMMARY = "K_true,init,mean,variance\n3,fixed2,3.0,0.0\n3,random3to6,5.0,0.0\n"
# |z| per moment of a short criterion-5 Geweke run at its seed.
GEWEKE_ZS = {
    "mean_w": 0.06380531486261279,
    "mean_w_sq": 0.4951720007683663,
    "mean_y": 0.3809997012915344,
    "mean_y_sq": 1.044826877599529,
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    stack = root / "stack.json"
    stack.write_text(json.dumps(STACK))
    study = root / "study.json"
    study.write_text(json.dumps(STUDY))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(stack), "--out", str(root / "gen"), "--seed", "7"]) == 0
        data = str(root / "gen" / "data.csv")
        for depth in (1, 2):
            assert main(["infer", data, "--config", str(stack), "--out", str(root / f"depth{depth}"),
                         "--seed", "7", "--depth", str(depth)]) == 0
        assert main(["experiment", "--config", str(study), "--out", str(root / "study"), "--seed", "7"]) == 0
    return root


def _trace_columns(path):
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    return ([int(r[1]) for r in rows], [int(r[3]) for r in rows], [int(r[4]) for r in rows],
            [float(r[2]) for r in rows])


def test_generate_is_pinned(runs):
    truth = dataio.read_json(runs / "gen" / "truth.json")
    assert [layer["mask_rows"] for layer in truth["layers"]] == TRUTH_MASKS
    X = dataio.read_dataset_csv(runs / "gen" / "data.csv")
    assert X.shape == (16, 120)
    np.testing.assert_allclose(np.abs(X).sum(), DATA_ABS_SUM, rtol=1e-9)


@pytest.mark.parametrize("depth, layer", sorted(TRACES))
def test_infer_trace_is_pinned(runs, depth, layer):
    k, adds, dels, lj = _trace_columns(runs / f"depth{depth}" / f"trace_layer{layer}.csv")
    want_k, want_adds, want_dels, want_lj = TRACES[depth, layer]
    assert (k, adds, dels) == (want_k, want_adds, want_dels)
    np.testing.assert_allclose(lj, want_lj, rtol=1e-9)


@pytest.mark.parametrize("depth", sorted(STATES))
def test_infer_state_is_pinned(runs, depth):
    layers = dataio.read_json(runs / f"depth{depth}" / "state.json")["layers"]
    assert [layer["k"] for layer in layers] == [k for k, _ in STATES[depth]]
    np.testing.assert_allclose([layer["log_joint"] for layer in layers],
                               [lj for _, lj in STATES[depth]], rtol=1e-9)


def test_experiment_is_pinned(runs):
    traces = runs / "study" / "traces"
    assert sorted(p.name for p in traces.iterdir()) == sorted(STUDY_TRACES)
    for name, (want_k, want_adds, want_dels, want_last) in STUDY_TRACES.items():
        k, adds, dels, lj = _trace_columns(traces / name)
        assert (k, adds, dels) == (want_k, want_adds, want_dels), name
        np.testing.assert_allclose(lj[-1], want_last, rtol=1e-9)
    assert (runs / "study" / "summary.csv").read_text() == SUMMARY


def test_geweke_moment_zs_is_pinned():
    zs = oracle.geweke_moment_zs(n_prior=2000, n_sweeps=400, burn_in=40, batches=8, seed=404)
    assert list(zs) == list(GEWEKE_ZS)
    np.testing.assert_allclose(list(zs.values()), list(GEWEKE_ZS.values()), rtol=1e-9)
