"""Golden-fixture regression tests for the kernel layer.

``tests/golden/kernels_golden.json`` pins, for every Figure-1 pattern
generator and the DARPA-like scene at n=64, the expected histogram, the
component count, and a SHA-256 over the canonical little-endian int64
label image.  Each fixture is then checked against **every** execution
backend (``serial`` = the darray ``local`` transport in process,
``process`` = its ``shmem`` transport on worker processes) x kernel
(``python``, ``numpy``) combination, so a regression in any engine, any kernel backend, or the
merge machinery shows up as a digest mismatch against a value reviewed
into git -- not merely as two engines agreeing on a new wrong answer.

Regenerate (only when the convention intentionally changes) with::

    PYTHONPATH=src python tests/test_kernels_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.darray import darray_components, darray_histogram
from repro.images import binary_test_image, darpa_like

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "kernels_golden.json"

N = 64
DARPA_K = 256

#: backend name -> darray transport
BACKENDS = {"serial": "local", "process": "shmem"}
KERNELS = ("python", "numpy")


def _cases() -> list[dict]:
    """The fixture inputs: 9 binary patterns + the grey DARPA scene."""
    cases = []
    for index in range(1, 10):
        cases.append(
            {
                "name": f"pattern{index}",
                "grey": False,
                "k": 2,
                "connectivity": 8,
            }
        )
    cases.append({"name": "darpa", "grey": True, "k": DARPA_K, "connectivity": 8})
    # one 4-connectivity row: the bar patterns differ between 4 and 8
    cases.append({"name": "pattern3@4conn", "grey": False, "k": 2, "connectivity": 4})
    return cases


def _case_image(name: str) -> np.ndarray:
    base = name.split("@")[0]
    if base == "darpa":
        return darpa_like(N, DARPA_K)
    return binary_test_image(int(base.removeprefix("pattern")), N)


def _label_digest(labels: np.ndarray) -> str:
    """SHA-256 of the canonical little-endian int64 label bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype="<i8").tobytes()
    ).hexdigest()


def _measure(case: dict, *, backend: str, kernel: str, p: int = 4) -> dict:
    image = _case_image(case["name"])
    opts = dict(p=p, transport=BACKENDS[backend], kernel=kernel)
    labels = darray_components(
        image, connectivity=case["connectivity"], grey=case["grey"], **opts
    ).labels
    hist = darray_histogram(image, case["k"], **opts)
    return {
        "histogram": [int(x) for x in hist],
        "n_components": int(np.unique(labels[labels != 0]).size),
        "label_sha256": _label_digest(labels),
    }


def regenerate() -> None:
    golden = {
        "n": N,
        "cases": {
            case["name"]: {
                **{k: v for k, v in case.items() if k != "name"},
                **_measure(case, backend="serial", kernel="numpy"),
            }
            for case in _cases()
        },
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['cases'])} cases)")


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), "golden fixture missing; see module docstring"
    return _load_golden()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_all_cases(golden, backend, kernel):
    """Every fixture, against one (backend, kernel) combination."""
    assert golden["n"] == N
    for name, expected in golden["cases"].items():
        case = {"name": name, **{
            k: expected[k] for k in ("grey", "k", "connectivity")
        }}
        got = _measure(case, backend=backend, kernel=kernel)
        assert got["histogram"] == expected["histogram"], (name, backend, kernel)
        assert got["n_components"] == expected["n_components"], (name, backend, kernel)
        assert got["label_sha256"] == expected["label_sha256"], (name, backend, kernel)


def test_golden_covers_all_patterns(golden):
    names = set(golden["cases"])
    assert {f"pattern{i}" for i in range(1, 10)} <= names
    assert "darpa" in names
    assert any("4conn" in name for name in names)


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
