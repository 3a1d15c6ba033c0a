"""The benchmark workloads: inputs from the seed, the timed call, the correctness gate.

Each workload is a ``Workload(setup, run, gate)``:

* ``setup(seed, scratch)`` builds the inputs, outside the timed region;
* ``run(inputs)`` is the timed region and returns the raw result;
* ``gate(inputs, result)`` checks the result at the repository's own
  tolerances, outside the timed region, and returns the list of
  ``(check name, passed)`` pairs and a digest of the result that must be
  the same for every repeat with the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from typing import Callable, NamedTuple

import numpy as np
import scipy  # noqa: F401  (imported during set-up, as any user pays for it)

from lproth import cli, forms, lpgeom, mollifier


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    gate: Callable


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# verify-all: the full claim run through the CLI at the default config.

def _verify_setup(seed: int, scratch: str) -> dict:
    mollifier.build_mollifier()
    out = tempfile.mkdtemp(prefix="verify-all-", dir=scratch)
    return {"out": out, "argv": ["run", "--suite", "verify-all", "--seed", str(seed),
                                 "--out", out]}


def _verify_run(inp: dict) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(inp["argv"])


def _verify_gate(inp: dict, code: int):
    out = inp["out"]
    try:
        with open(os.path.join(out, "report.json"), "rb") as fh:
            report = json.load(fh)
        # Wall-clock data and the per-repeat output directory are not results.
        report.pop("timing")
        report["config"]["out_dir"] = None
        csvs = []
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    csvs.append(name.encode() + b"\0" + fh.read())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    checks = [("exit-code-0", code == 0)]
    checks += [(f"record:{r['name']}", bool(r["passed"])) for r in report["records"]]
    canon = json.dumps(report, sort_keys=True).encode()
    return checks, _digest(canon, *csvs)


# counting-forms: sharp form on a large grid beside the lattice triple sums.

SHELL_N, SHELL_CELLS = 4.0, 2048
FORM_P, FORM_LAM, FORM_EPS, FORM_N, FORM_CELLS = 1.5, 2.0, 0.25, 8.0, 192


def _forms_setup(seed: int, scratch: str) -> dict:
    m = mollifier.build_mollifier()
    h = SHELL_N / SHELL_CELLS
    ax = (np.arange(SHELL_CELLS) + 0.5) * h
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    r2 = X**2 + Y**2
    shell = forms.BoxFunction(values=(np.abs(r2 - np.round(r2)) <= 0.1).astype(float),
                              N=SHELL_N, h=h)
    hf = FORM_N / FORM_CELLS
    return {
        "m": m,
        "shell": shell,
        "random": forms.random_indicator(FORM_N, hf, 2, 0.5, seed),
        "full": forms.full_box(FORM_N, hf, 2),
    }


def _forms_run(inp: dict) -> dict:
    m = inp["m"]
    gap = math.sqrt(0.75)  # forbidden: 2 gap^2 = 1.5 sits mid-way between integers
    rule = lpgeom.sphere_quadrature(2.0, 2, gap, n=64)
    return {
        "sharp": forms.n_lambda(inp["shell"], rule, gap).value,
        "residual": forms.decomposition_residual(inp["random"], FORM_LAM, FORM_EPS, m, FORM_P),
        "full": forms.m_eps_lambda(inp["full"], FORM_LAM, FORM_EPS, m, FORM_P).value,
    }


def _forms_gate(inp: dict, res: dict):
    oracle = forms.full_box_mollified_oracle(FORM_LAM, FORM_EPS, inp["m"], FORM_P, 2, FORM_N)
    checks = [
        ("forbidden-gap-sharp-form", res["sharp"] < 1e-3 * SHELL_N**2),
        ("decomposition-residual", abs(res["residual"]) < 1e-10),
        ("full-box-vs-oracle", abs(res["full"] - oracle) / oracle < 2e-2),
    ]
    return checks, _digest(repr(sorted(res.items())).encode())


WORKLOADS = {
    "verify-all": Workload(_verify_setup, _verify_run, _verify_gate),
    "counting-forms": Workload(_forms_setup, _forms_run, _forms_gate),
}
