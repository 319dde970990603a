"""Correctness gate for the benchmark's outputs.

Every snapshot CSV a job writes is checked once per run:

* against the digests stored in ``reference.json`` (P and Q at a fixed node
  subset plus the snapshot mass, generated from the figure configs), when
  the snapshot's file prefix and grid have a stored reference;
* for t > 0, mass conservation |mass - 1| and positivity of the probability
  density P (acceptance criterion 5 of the test suite);
* for t > 0 on a closed route, pointwise agreement with the spectral route
  (``oqbm.spectral.solve``) on every node;
* for t > 0 on the spectral route, the FFT imaginary residue of the evolved
  spectrum, recomputed from the public ``exp_symbols``.

Each check yields a margin deviation/tolerance; a margin >= 1 is a failure.
Validation rows are read from the table ``run_validate`` prints.

    python3 bench/gate.py --write-reference   # regenerate reference.json
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig6")
DIGEST_NODES = 65          # evenly spaced node indices, both ends included
DIGEST_TOL = 1e-8          # |P - P_ref|, |Q - Q_ref|, |mass - mass_ref|
CROSS_TOL = 1e-8           # |closed - spectral| on every node
MASS_TOL = 1e-8            # |mass - 1| for t > 0
POSITIVITY_TOL = 1e-8      # P may dip below zero by this much
FFT_IMAG_TOL = 1e-10       # relative imaginary residue, the spectral solver's own gate
# Margins are resolved to 1e-4 of their tolerance: a deviation at round-off
# level reads as this floor, so refactors that only move round-off leave
# err_margin unchanged while any deviation that matters still shows.
MARGIN_FLOOR = 1e-4

_ROW = re.compile(r"^(PASS|FAIL)\s+(.*?)\s+max_err=\s*(\S+)\s+tol=\s*(\S+)\s+(\S+)s$")


@dataclass
class Verdict:
    """What one checked output contributes to failed_frac and err_margin."""

    name: str
    margin: float
    failed: bool
    detail: str = ""


def digest_nodes(n_points: int) -> np.ndarray:
    return np.linspace(0, n_points - 1, DIGEST_NODES).astype(int)


def read_csv(path: Path) -> np.ndarray:
    """Columns t, x, P, Q, C_R, C_I, rho11, rho22 as an (n, 8) array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def snapshot_digest(table: np.ndarray, dx: float) -> dict:
    idx = digest_nodes(table.shape[0])
    return {
        "P": table[idx, 2].tolist(),
        "Q": table[idx, 3].tolist(),
        "mass": float(np.trapezoid(table[:, 2], dx=dx)),
    }


def _residue(scenario, t: float) -> float:
    """Relative imaginary residue of the spectrally evolved (P, C_I, Q)."""
    from oqbm import spectral
    from oqbm.core import initial_spectrum

    grid = scenario.grid
    spectra = spectral.exp_symbols(grid.fourier_nodes, scenario.params, t)
    hat = np.stack(initial_spectrum(scenario.ic, grid.fourier_nodes)[:3], axis=1).astype(complex)
    evolved = np.einsum("mij,mj->mi", spectra, hat)
    worst = 0.0
    for i in range(3):
        values = grid.inverse_transform(evolved[:, i])
        peak = max(float(np.max(np.abs(values.real))), 1.0)
        worst = max(worst, float(np.max(np.abs(values.imag))) / peak)
    return worst


def check_snapshot(path: Path, scenario, t: float, route: str, reference: dict | None) -> list:
    """All verdicts for one snapshot CSV of ``scenario`` at time ``t``."""
    from oqbm import spectral

    name = path.name
    grid = scenario.grid
    table = read_csv(path)
    if table.shape != (grid.n_points, 8) or not np.all(table[:, 0] == t) \
            or not np.all(np.isfinite(table)):
        return [Verdict(name, math.inf, True, "malformed CSV")]
    P, Q = table[:, 2], table[:, 3]
    digest = snapshot_digest(table, grid.dx)
    mass = digest["mass"]
    out = []
    if reference is not None:
        dev = max(np.max(np.abs(np.subtract(digest["P"], reference["P"]))),
                  np.max(np.abs(np.subtract(digest["Q"], reference["Q"]))),
                  abs(mass - reference["mass"]))
        out.append(Verdict(name, dev / DIGEST_TOL, dev >= DIGEST_TOL, "reference digest"))
    if t > 0.0:
        out.append(Verdict(name, abs(mass - 1.0) / MASS_TOL, abs(mass - 1.0) >= MASS_TOL, "mass"))
        low = -min(float(np.min(P)), 0.0)
        out.append(Verdict(name, low / POSITIVITY_TOL, low >= POSITIVITY_TOL, "positivity"))
        if route == "spectral":
            res = _residue(scenario, t)
            out.append(Verdict(name, res / FFT_IMAG_TOL, res >= FFT_IMAG_TOL, "FFT imaginary residue"))
        else:
            u = spectral.solve(scenario.params, scenario.ic, t, grid)
            dev = max(np.max(np.abs(P - u.rho_plus)), np.max(np.abs(Q - u.rho_minus)))
            out.append(Verdict(name, dev / CROSS_TOL, dev >= CROSS_TOL, "closed vs spectral"))
    return out


def reference_for(reference: dict, prefix: str, tag: str, grid) -> dict | None:
    """Stored digest for ``<prefix>_t<tag>.csv`` when it was made on the same grid."""
    entry = reference.get(f"{prefix}_t{tag}.csv")
    if entry is None or entry["n_points"] != grid.n_points or entry["half_width"] != grid.half_width:
        return None
    return entry


def parse_validate(text: str, exit_code: int) -> list:
    """Verdicts for the rows of the table ``run_validate`` printed, and for its exit code."""
    out = []
    for line in text.splitlines():
        m = _ROW.match(line.strip())
        if m:
            status, name, err, tol, _ = m.groups()
            out.append(Verdict(name, float(err) / float(tol), status != "PASS", "validate"))
    if not out:
        out.append(Verdict("validate", math.inf, True, "no rows"))
    if exit_code != 0 and not any(v.failed for v in out):
        out.append(Verdict("validate", math.inf, True, f"exit code {exit_code}"))
    return out


def err_margin(verdicts) -> float:
    """Worst finite margin; outputs that could not be compared count only as failures."""
    return max([MARGIN_FLOOR] + [v.margin for v in verdicts if math.isfinite(v.margin)])


def write_reference() -> None:
    """Run the reference figures and store their digests in reference.json."""
    from oqbm import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent) as tmp:
        for name in REFERENCE_FIGURES:
            manifest = cli.run_figure(name, Path(tmp), threads=1)
            for run in manifest["runs"].values():
                grid = run["grid"]
                for entry in run["files"].values():
                    table = read_csv(Path(tmp) / entry["file"])
                    reference[entry["file"]] = {
                        "n_points": grid["n_points"], "half_width": grid["half_width"],
                        "solver": entry["solver"], **snapshot_digest(table, grid["dx"]),
                    }
    with open(REFERENCE_PATH, "w", newline="\n") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 bench/gate.py --write-reference")
    sys.path.insert(0, str(REFERENCE_PATH.parents[1] / "src"))
    write_reference()
