"""Regenerate the golden-value file for the Genz family on numpy.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

The file pins bit-exact estimates/errors/iteration counts for the whole
Genz suite on the reference backend.  Regenerate it **only** when a change
intentionally alters the numerics (new error model default, rule fix, …)
and say why in the commit message; for pure refactors, optimisations and
scheduling changes the suite must reproduce these bits exactly.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).parent / "genz_numpy_golden.json"
WORKLOAD_PATH = Path(__file__).parent / "workload_numpy_golden.json"

#: the pinned workload: every Genz family at several dimensionalities
DIMS = (2, 3, 5)
SEED = 0
REL_TOL = 1e-4


def blas_fingerprint() -> str:
    """Digest of the BLAS products the hot path still reaches.

    The rule contractions and the finished-contribution sums are numpy
    reductions in a fixed order, so BLAS is left only inside integrands:
    the Genz and paper families' narrow ``x @ a`` matvecs (10^4 to 10^5
    rows per chunk at the default grain, enough for BLAS to split them
    across threads) and
    the ``gaussian_measure`` transform's ``z @ L.T``.  Two environments
    that produce identical bits here dispatch the same kernels on those
    shapes, so the golden hex comparison is safe; version/machine strings
    alone cannot distinguish CPU microarchitectures.
    """
    digest = hashlib.sha256()
    for rows, cols in ((100_000, 2), (50_000, 5), (20_000, 8)):
        x = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) / 7.0
        digest.update(x @ (np.arange(1, cols + 1) / 3.0))
        digest.update(x[:2000] @ (x[:cols] / 11.0).T)
    return digest.hexdigest()[:32]


def golden_cases():
    from repro.integrands.genz import GenzFamily, make_genz

    for family in GenzFamily:
        for ndim in DIMS:
            yield family.value, ndim, make_genz(family, ndim, seed=SEED)


def compute_rows() -> list:
    from repro.api import integrate

    rows = []
    for family, ndim, f in golden_cases():
        res = integrate(f, ndim, rel_tol=REL_TOL, backend="numpy")
        rows.append(
            {
                "family": family,
                "ndim": ndim,
                "seed": SEED,
                "rel_tol": REL_TOL,
                # float.hex() round-trips exactly; the test compares hex
                # strings so a 1-ULP drift is a failure, not a rounding
                # artifact of decimal repr.
                "estimate_hex": float(res.estimate).hex(),
                "errorest_hex": float(res.errorest).hex(),
                "estimate": res.estimate,
                "errorest": res.errorest,
                "iterations": res.iterations,
                "neval": res.neval,
                "nregions": res.nregions,
                "status": res.status.value,
            }
        )
    return rows


#: one pinned spec per transform family (PAGANI on numpy)
TRANSFORM_ROWS = (
    "semi_infinite(3D-f4, scale=2.0)",
    "infinite(2D-genz-gaussian, scale=1.5)",
    "gaussian_measure(2D-f4, mean=0.5, sigma=0.8)",
)

#: one pinned run per baseline integrator on a shared problem; vegas and
#: qmc are seeded, so their sampling paths are deterministic too
BASELINE_ROWS = (
    ("cuhre", "3D-f4", 1e-5),
    ("two_phase", "3D-f4", 1e-5),
    ("qmc", "3D-f4", 1e-4),
    ("vegas", "3D-f4", 1e-3),
)


def _result_row(res, rel_tol: float) -> dict:
    return {
        "rel_tol": rel_tol,
        "estimate_hex": float(res.estimate).hex(),
        "errorest_hex": float(res.errorest).hex(),
        "estimate": res.estimate,
        "errorest": res.errorest,
        "iterations": res.iterations,
        "neval": res.neval,
        "status": res.status.value,
    }


def compute_workload_rows() -> list:
    from repro.api import integrate
    from repro.integrands.catalog import named_integrand

    rows = []
    for spec in TRANSFORM_ROWS:
        f = named_integrand(spec)
        res = integrate(f, f.ndim, rel_tol=REL_TOL, backend="numpy")
        rows.append({"kind": "transform", "spec": spec,
                     **_result_row(res, REL_TOL)})
    for method, spec, rel_tol in BASELINE_ROWS:
        f = named_integrand(spec)
        res = integrate(f, f.ndim, rel_tol=rel_tol, method=method)
        rows.append({"kind": "baseline", "method": method, "spec": spec,
                     **_result_row(res, rel_tol)})
    return rows


def main() -> None:
    payload = {
        "schema": 1,
        "description": "bit-exact Genz-family results on the numpy backend",
        # The bit-exact hex comparison is gated on this fingerprint: a
        # different numpy build or CPU family may legally move results by
        # an ULP through BLAS kernel dispatch, so foreign environments
        # fall back to a tight approximate check (see test_golden.py).
        "generated_with": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_probe": blas_fingerprint(),
        },
        "rows": compute_rows(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['rows'])} rows)")

    workload = {
        "schema": 1,
        "description": (
            "bit-exact transform-spec and baseline-integrator results "
            "on the numpy backend"
        ),
        "generated_with": payload["generated_with"],
        "rows": compute_workload_rows(),
    }
    WORKLOAD_PATH.write_text(json.dumps(workload, indent=2) + "\n")
    print(f"wrote {WORKLOAD_PATH} ({len(workload['rows'])} rows)")


if __name__ == "__main__":
    main()
