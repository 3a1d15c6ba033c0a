"""Smoke runs of the scripts in scripts/ at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run(script, *args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd,
                          env=_env(), capture_output=True, text=True, timeout=300,
                          check=True).stdout


def test_decay_curves(tmp_path):
    out = _run("decay_curves.py", "--p", "2", "1.5", "--kl-nodes", "4",
               "--out", str(tmp_path / "curves"), cwd=tmp_path)
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("p=2.0:") and "degenerate (no decay expected)" in lines[0]
    assert lines[1].startswith("p=1.5:") and "-1/r = -0.400" in lines[1]
    for p in ("2.0", "1.5"):
        rows = (tmp_path / "curves" / f"decay_p{p}.csv").read_text().splitlines()
        assert rows[0] == "t,abs_I,envelope" and len(rows) == 8


def test_gap_spectrum(tmp_path):
    out = _run("gap_spectrum.py", "--hits", "200", "--out", str(tmp_path / "spectra"),
               cwd=tmp_path)
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["p=2.0", "p=1.5"]
    assert all("200 progressions" in line for line in lines)
    # the square-shell restriction holds for the Euclidean gap length only
    dev = [float(line.split("= ")[1].split()[0]) for line in lines]
    assert dev[0] <= 0.4 < dev[1]
    for p in ("2.0", "1.5"):
        rows = (tmp_path / "spectra" / f"gap_spectrum_p{p}.csv").read_text().splitlines()
        assert rows[0] == "gap,count" and len(rows) == 65


def test_theorem_control(tmp_path):
    out = _run("theorem_control.py", "--seeds", "1", "--J", "2", cwd=tmp_path)
    lines = out.splitlines()
    assert lines == ["seed 1: scales realized ['4', '8']",
                     "all seeds realized at least one scale: True"]


def test_theorem_control_names_a_negative_seed(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "theorem_control.py"),
                           "--seeds", "1", "--seed0", "-1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env=_env())
    assert done.returncode != 0
    assert "ValueError: seeds must hold non-negative integers, got -1" in done.stderr
