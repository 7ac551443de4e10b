"""repro: parallel image histogramming and connected components.

A production-quality Python reproduction of

    David A. Bader and Joseph JaJa, "Parallel Algorithms for Image
    Histogramming and Connected Components with an Experimental
    Study", PPoPP 1995 / UMD technical report, December 1994.

The package provides

* the paper's algorithms executed on a simulated Block Distributed
  Memory machine with full cost accounting
  (:func:`repro.core.parallel_histogram`,
  :func:`repro.core.parallel_components`),
* the BDM substrate itself (:mod:`repro.bdm`) with the transpose and
  broadcast primitives of Section 2,
* machine models for the five platforms of the experimental study
  (:mod:`repro.machines`),
* sequential baselines and test-image generators,
* a distributed tile array (:mod:`repro.darray`) that runs the same
  schedule in process, over shared-memory worker processes (the
  ``shmem`` transport, for wall-clock parallel runs on multi-core
  hosts) or out of core, and
* a kernel registry (:mod:`repro.kernels`) dispatching the hot local
  steps to a per-pixel ``python`` reference or a bit-identical
  vectorized ``numpy`` backend (see docs/KERNELS.md).

Quickstart::

    import repro
    from repro.images import binary_test_image
    from repro.machines import CM5

    img = binary_test_image(9, 512)           # the dual-spiral pattern
    result = repro.parallel_components(img, p=32, machine_params=CM5)
    print(result.n_components, result.elapsed_s)
"""

from repro import kernels
from repro.faults import FaultPlan, FaultSpec
from repro.core.connected_components import parallel_components, ComponentsResult
from repro.core.equalization import parallel_equalize, EqualizationResult
from repro.core.histogram import parallel_histogram, HistogramResult
from repro.core.tiles import ProcessorGrid
from repro.baselines.sequential import (
    sequential_components,
    sequential_histogram,
)
from repro.machines.params import MACHINES, get_machine

__version__ = "1.4.0"

__all__ = [
    "kernels",
    "FaultPlan",
    "FaultSpec",
    "parallel_components",
    "ComponentsResult",
    "parallel_histogram",
    "HistogramResult",
    "parallel_equalize",
    "EqualizationResult",
    "ProcessorGrid",
    "sequential_components",
    "sequential_histogram",
    "MACHINES",
    "get_machine",
    "__version__",
]
