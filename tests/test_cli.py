import json

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


def test_entropy_command(tmp_path, spec_doubling):
    out = tmp_path / "e"
    rc = main(["--map", spec_doubling, "--out", str(out), "entropy", "--nmax", "12"])
    assert rc == 0
    doc = json.loads((out / "entropy.json").read_text())
    assert abs(doc["entropy"] - 0.6931471805599453) < 1e-6


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


def test_verify_command_logistic4(tmp_path):
    spec = tmp_path / "l4.map"
    spec.write_text("family = logistic\nlam = 4\n")
    out = tmp_path / "v"
    rc = main(
        ["--map", str(spec), "--out", str(out), "--horizon", "100000", "verify"]
    )
    assert rc == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["failures"] == []


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
