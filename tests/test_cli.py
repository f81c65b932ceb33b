import hashlib
import json
import math

import numpy as np
import pytest

from intervaldyn.cli import main


@pytest.fixture()
def spec_logistic32(tmp_path):
    p = tmp_path / "l32.map"
    p.write_text("family = logistic\nlam = 16/5\n")
    return str(p)


@pytest.fixture()
def spec_doubling(tmp_path):
    p = tmp_path / "doubling.map"
    p.write_text("family = doubling\n")
    return str(p)


def test_orbit_command(tmp_path, spec_logistic32):
    out = tmp_path / "out"
    rc = main(
        ["--map", spec_logistic32, "--out", str(out), "--horizon", "100", "orbit", "--x0", "0.3"]
    )
    assert rc == 0
    csv = (out / "orbit.csv").read_text()
    assert csv.startswith("# config_hash=")
    assert len(csv.splitlines()) == 103  # meta + header + 101 points
    assert (out / "cobweb.svg").read_text().startswith("<svg")


def test_orbit_command_reads_the_exact_engine(tmp_path, spec_doubling):
    # the float orbit of the doubling map stops on 1/2 at step 51
    out = tmp_path / "out"
    rc = main(
        ["--map", spec_doubling, "--out", str(out), "--horizon", "100", "orbit", "--x0", "0.2137"]
    )
    assert rc == 0
    rows = (out / "orbit.csv").read_text().splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(101))


def test_stats_command(tmp_path, spec_logistic32):
    out = tmp_path / "s"
    rc = main(
        ["--map", spec_logistic32, "--out", str(out), "--horizon", "4096", "stats", "--x0", "0.3"]
    )
    assert rc == 0
    lines = (out / "stats.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "n"


def test_attractors_command(tmp_path, spec_logistic32):
    out = tmp_path / "a"
    rc = main(
        [
            "--map", spec_logistic32, "--out", str(out),
            "--horizon", "50000", "--seed", "4",
            "attractors", "--samples", "20",
        ]
    )
    assert rc == 0
    doc = json.loads((out / "census.json").read_text())
    assert doc["schema"] == 1
    assert doc["attractors"][0]["kind"] == "periodic_like"


def test_returnmap_command(tmp_path, spec_doubling):
    out = tmp_path / "r"
    rc = main(
        ["--map", spec_doubling, "--out", str(out), "returnmap", "--interval", "0:0.5"]
    )
    assert rc == 0
    doc = json.loads((out / "returnmap.json").read_text())
    assert doc["full_branch"] is True
    assert doc["returnmap"]["horizon"] == 64


def test_returnmap_uses_the_horizon_given(tmp_path, spec_doubling):
    # a --horizon up to 10 000 is searched as given; above it was once
    # replaced by 64 without a word
    out = tmp_path / "r"
    rc = main(["--map", spec_doubling, "--out", str(out), "--horizon", "5000", "returnmap"])
    assert rc == 0
    assert json.loads((out / "returnmap.json").read_text())["returnmap"]["horizon"] == 5000


def test_entropy_command(tmp_path, spec_doubling):
    out = tmp_path / "e"
    rc = main(["--map", spec_doubling, "--out", str(out), "entropy", "--nmax", "12"])
    assert rc == 0
    doc = json.loads((out / "entropy.json").read_text())
    assert abs(doc["entropy"] - 0.6931471805599453) < 1e-6


# sha256 prefixes of laps.csv and entropy.json of `--map NAME.map entropy` at
# the default --nmax, recorded before the lap counts were logged as floats
ENTROPY_OUTPUTS = {
    "l4": ("57656b01ee4ee617", "4c5d81a32f22301c"),
    "doubling": ("1881d85b9a02382a", "13b61d73f6abb5dc"),
    "tent2": ("d4e6b755c422c946", "5443f8e20344338c"),
    "lorenz": ("92636e70cf6c77d2", "3f6bde142960dabd"),
    "bimodal": ("a52ae7520f46f52a", "9c79a4b7f778a3b5"),
    "zigzag3": ("d711d1ac4c85ad3f", "9fd3597ae80d09cb"),
}


@pytest.mark.parametrize("name", sorted(ENTROPY_OUTPUTS))
def test_entropy_outputs_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.map").write_text(SPECS[name])
    assert main(["--map", f"{name}.map", "--out", "o", "entropy"]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest()[:16]
        for f in ("laps.csv", "entropy.json")
    )
    assert digests == ENTROPY_OUTPUTS[name]


@pytest.mark.parametrize(
    "spec, nmax",
    [("family = zigzag3\n", 41), ("family = logistic\nlam = 3.83\n", 100), ("family = bimodal\n", 100)],
    ids=["zigzag3", "logistic3.83", "bimodal"],
)
def test_entropy_of_lap_counts_past_int64(tmp_path, spec, nmax):
    # the lap counts pass 2^63 before nmax; they were logged as an object array
    path = tmp_path / "m.map"
    path.write_text(spec)
    out = tmp_path / "e"
    assert main(["--map", str(path), "--out", str(out), "entropy", "--nmax", str(nmax)]) == 0
    counts = [int(line.split(",")[1]) for line in (out / "laps.csv").read_text().splitlines()[2:]]
    assert len(counts) == nmax and counts[-1] > 2**63
    assert math.isfinite(json.loads((out / "entropy.json").read_text())["entropy"])


@pytest.mark.parametrize(
    "spec, nmax, message",
    [
        # lorenz's float lap states lose one lap per step from n = 22 and
        # none is left at n = 42; the entropy was written as NaN
        ("family = lorenz\n", 60, "error: lap count of f^42 is 0"),
        # doubling's 2^1100 laps do not fit a double
        ("family = doubling\n", 1100, "error: lap counts pass the double range"),
    ],
    ids=["lorenz-no-lap-left", "doubling-past-double-range"],
)
def test_entropy_exits_1_on_lap_counts_it_cannot_log(tmp_path, capsys, spec, nmax, message):
    path = tmp_path / "m.map"
    path.write_text(spec)
    out = tmp_path / "e"
    assert main(["--map", str(path), "--out", str(out), "entropy", "--nmax", str(nmax)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (out / "entropy.json").exists()


def test_historic_rejects_a_branch_with_an_offset(tmp_path, capsys):
    # logistic(4) with its left branch written as 1/4 + (-1/4 + 4x - 4x^2):
    # the witness arithmetic ignored the offset and overflowed
    spec = tmp_path / "l4offset.map"
    spec.write_text(
        "branch = (0, 1/2) : -1/4, 4, -4 : increasing : exp=1, offset=1/4\n"
        "branch = (1/2, 1) : 0, 4, -4 : decreasing\n"
        "critical = 1/2\n"
    )
    rc = main(["--map", str(spec), "--out", str(tmp_path / "h"), "--horizon", "20000", "historic"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: witness construction supports plain polynomial branches of degree <= 2\n"


def test_decompose_command(tmp_path, spec_logistic32):
    out = tmp_path / "d"
    rc = main(["--map", spec_logistic32, "--out", str(out), "--eps", "0.00390625", "decompose"])
    assert rc == 0
    doc = json.loads((out / "components.json").read_text())
    assert len(doc["classes"]) <= 1


def test_malformed_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("family = nosuchthing\n")
    rc = main(["--map", str(bad), "--out", str(tmp_path / "x"), "orbit"])
    assert rc == 2
    bad2 = tmp_path / "bad2.map"
    bad2.write_text("branch = (0, 0.6) : 0, 1 : inc\nbranch = (0.5, 1) : 0, 1 : inc\n")
    rc = main(["--map", str(bad2), "--out", str(tmp_path / "y"), "orbit"])
    assert rc == 2


def test_determinism_byte_identical(tmp_path, spec_logistic32):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        rc = main(
            [
                "--map", spec_logistic32, "--out", str(out),
                "--horizon", "20000", "--seed", "7",
                "attractors", "--samples", "10",
            ]
        )
        assert rc == 0
        outs.append((out / "census.json").read_bytes())
    assert outs[0] == outs[1]


def test_historic_command(tmp_path):
    spec = tmp_path / "l4.map"
    spec.write_text("family = logistic\nlam = 4\n")
    out = tmp_path / "h"
    rc = main(
        ["--map", str(spec), "--out", str(out), "--horizon", "100000",
         "--seed", "2", "historic", "--stages", "2"]
    )
    assert rc == 0
    doc = json.loads((out / "witness.json").read_text())
    assert doc["certified_sup"] - doc["certified_inf"] >= 0.4
    assert (out / "envelope.svg").exists()


# sha256 of the stats.csv and verify.json of `--map NAME.map --horizon 100000`
# (the map path is part of the embedded config hash), recorded before the
# statistics of one orbit began sharing its computation; lorenz's stats.csv
# at --horizon 20000 (its dyadic mantissa orbit) was recorded before that
# orbit and the witness replay shared one loop
PINNED_OUTPUTS = {
    ("stats", "l4"): "bf611ac5fd75a9d561c30abace9d53de7adf31ebac6d85f9c0477af3d2e5a12c",
    ("stats", "doubling"): "0db208897c537ab67ac0441edb8b7ab5638d1c18b4c949accdfc9793f609d9fb",
    ("stats", "lorenz"): "4445a5c1f405c4afe227085fb0c67d78e3bfd5616de2b7738c5afd0c0c0ffea2",
    ("verify", "l4"): "73eaa5c87c96497594b22b83850ae25b25922b28cdc1ce91b6579f42d496f6d6",
    ("verify", "doubling"): "fabadaf7f67809514398d95f23af0b48e7822cc6abec33d1f1943d0aab6b5fe5",
}
SPECS = {
    "l4": "family = logistic\nlam = 4\n",
    "doubling": "family = doubling\n",
    "tent2": "family = tent\n",
    "lorenz": "family = lorenz\n",
    "bimodal": "family = bimodal\n",
    "zigzag3": "family = zigzag3\n",
}


def _run_pinned(tmp_path, monkeypatch, command, name, horizon=100_000):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.map").write_text(SPECS[name])
    rc = main(["--map", f"{name}.map", "--out", "o", "--horizon", str(horizon), command])
    path = tmp_path / "o" / ("stats.csv" if command == "stats" else "verify.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_OUTPUTS[command, name]
    return rc, path


@pytest.mark.parametrize("name", ["l4", "doubling"])
def test_stats_output_pinned(tmp_path, monkeypatch, name):
    rc, _ = _run_pinned(tmp_path, monkeypatch, "stats", name)
    assert rc == 0


def test_lorenz_stats_output_pinned(tmp_path, monkeypatch):
    rc, _ = _run_pinned(tmp_path, monkeypatch, "stats", "lorenz", horizon=20_000)
    assert rc == 0


def test_verify_command_logistic4(tmp_path, monkeypatch):
    rc, path = _run_pinned(tmp_path, monkeypatch, "verify", "l4")
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["failures"] == []


def test_verify_command_doubling(tmp_path, monkeypatch):
    rc, path = _run_pinned(tmp_path, monkeypatch, "verify", "doubling")
    assert rc == 0
    assert json.loads(path.read_text())["failures"] == []


def test_verify_builds_no_witness_it_cannot_pass(tmp_path):
    # bimodal's extreme periodic means inside its cycle, 0.8667 and 0.7700,
    # lie closer than the witness gap 0.1 that verify asks for
    spec = tmp_path / "bimodal.map"
    spec.write_text("family = bimodal\n")
    out = tmp_path / "v"
    rc = main(["--map", str(spec), "--out", str(out), "--horizon", "100000", "verify"])
    doc = json.loads((out / "verify.json").read_text())
    assert rc == 0 and doc["failures"] == []
    assert any(n.startswith("no historic witness: ") for n in doc["notes"])


def test_attractors_too_fine_for_memory(tmp_path, spec_logistic32, capsys, monkeypatch):
    # 200 seeds at 2^-32 need 800 GiB of masks: refused before allocating
    def refuse_large(alloc):
        def guarded(shape, *args, **kwargs):
            if np.prod(shape) > 1 << 24:
                raise AssertionError("allocated the census masks")
            return alloc(shape, *args, **kwargs)

        return guarded

    monkeypatch.setattr(np, "zeros", refuse_large(np.zeros))
    monkeypatch.setattr(np, "empty", refuse_large(np.empty))
    rc = main(["--map", spec_logistic32, "--out", str(tmp_path / "a"), "--eps", "1e-9", "attractors"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("family = logistic\nlamda = 16/5\n", "unknown parameter 'lamda'"),
        ("family = logistic\nlam = 5\n", "invalid logistic map (lam = 5)"),
        ("family = tent\nlam = 2\n", "unknown parameter 'lam'"),
        ("branch = (0, 1) : 0, 1 : inc\ncritcal = 1/2\n", "unknown key 'critcal'"),
    ],
    ids=["misspelt-parameter", "map-leaves-unit-interval", "other-family-parameter", "misspelt-key"],
)
def test_bad_family_spec_exits_2(tmp_path, capsys, text, message):
    spec = tmp_path / "bad.map"
    spec.write_text(text)
    rc = main(["--map", str(spec), "--out", str(tmp_path / "x"), "orbit"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_named_lorenz_spec_leaves_catalog_map_unrenamed(tmp_path):
    from intervaldyn import catalog
    from intervaldyn.mapspec import load_mapspec

    spec = tmp_path / "lorenz.map"
    spec.write_text("family = lorenz\nname = my-lorenz\n")
    rc = main(["--map", str(spec), "--out", str(tmp_path / "o"), "--horizon", "10", "orbit"])
    assert rc == 0
    assert load_mapspec(spec).name == "my-lorenz"
    assert catalog.lorenz().name == "lorenz"


@pytest.mark.parametrize("command", ["orbit", "stats"])
@pytest.mark.parametrize("x0", ["1.5", "-0.1", "nan"])
def test_x0_outside_unit_interval_exits_2(tmp_path, spec_logistic32, command, x0):
    with pytest.raises(SystemExit) as exc:
        main(["--map", spec_logistic32, "--out", str(tmp_path / "o"), command, "--x0", x0])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("eps", ["1e-12", "0", "-1", "nan", "inf", "2"])
def test_bad_eps_exits_2(tmp_path, spec_logistic32, capsys, eps):
    # 1e-12 would need a 2^-42 census grid; the others are no cell width
    with pytest.raises(SystemExit) as exc:
        main(["--map", spec_logistic32, "--out", str(tmp_path / "o"), "--eps", eps, "attractors"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "error: argument --eps" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["attractors", "--samples", "0"], "argument --samples: 0 is less than 1"),
        (["--horizon", "0", "orbit"], "argument --horizon: 0 is less than 1"),
        (["--horizon", "-5", "stats"], "argument --horizon: -5 is less than 1"),
        (["entropy", "--nmax", "3"], "argument --nmax: 3 is less than 8"),
        (["returnmap", "--interval", "0.5:0.2"], "argument --interval: 0.5:0.2 is not an interval inside [0, 1]"),
        (["returnmap", "--interval", "abc"], "argument --interval: abc is not lo:hi"),
        (["returnmap", "--interval", "0:2"], "argument --interval: 0:2 is not an interval inside [0, 1]"),
        (["stats", "--window", "0.5"], "argument --window: 0.5 is not lo:hi"),
        (["stats", "--phi", "poly:a"], "argument --phi: 'poly:a' is not an observable"),
        (["stats", "--phi", "foo"], "argument --phi: 'foo' is not an observable"),
        (["stats", "--phi", "pwl:0,1;0"], "2 piecewise-linear nodes but 1 values"),
        (["historic", "--stages", "-1"], "argument --stages: -1 is less than 0"),
        (["--horizon", "20000", "returnmap"], "argument --horizon: returnmap searches at most 10000 steps, got 20000"),
        (["--eps", "1e-6", "decompose"], "argument --eps: decompose needs eps >= 1e-05, got 1e-06"),
    ],
)
def test_bad_arguments_exit_2(tmp_path, spec_logistic32, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["--map", spec_logistic32, "--out", str(tmp_path / "o"), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
