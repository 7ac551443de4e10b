"""Independent references for every output the benchmark checks.

Nothing here imports the program.  Labels come from
``scipy.ndimage.label`` with the full 3x3 structure (8-connectivity);
grey images are labelled one grey level at a time.  Both are then put in
the repository's convention: background 0, every component labelled
``1 +`` the smallest flat index of its pixels.  Histograms come from
``np.bincount``.

Outputs are compared by digest, so a reference costs 32 bytes to keep
and a 4096^2 label file is checked without loading it whole.  Label
references are cached by input digest (:class:`ReferenceCache`).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from scipy import ndimage

STRUCTURE_8 = np.ones((3, 3), dtype=bool)

#: Rows hashed per block when digesting a (possibly memory-mapped) array.
_DIGEST_ROWS = 256


def digest(array) -> str:
    """Digest of an integer array's values and shape, independent of dtype."""
    a = np.asanyarray(array)
    h = hashlib.blake2b(digest_size=32)
    h.update(repr(tuple(a.shape)).encode())
    rows = a.reshape(a.shape[0], -1) if a.ndim > 1 else a.reshape(1, -1)
    for lo in range(0, rows.shape[0], _DIGEST_ROWS):
        block = np.ascontiguousarray(rows[lo : lo + _DIGEST_ROWS], dtype=np.int64)
        h.update(block.tobytes())
    return h.hexdigest()


def canonicalize(components: np.ndarray) -> np.ndarray:
    """Relabel any component-id image (0 = background) to the repo convention."""
    flat = components.ravel()
    ids, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    canon = first.astype(np.int64) + 1
    if ids[0] == 0:
        canon[0] = 0
    return canon[inverse].reshape(components.shape)


def component_ids(image: np.ndarray, *, grey: bool) -> np.ndarray:
    """Arbitrary positive ids per 8-connected component, 0 on background."""
    image = np.asarray(image)
    if not grey:
        ids, _ = ndimage.label(image != 0, structure=STRUCTURE_8)
        return ids
    out = np.zeros(image.shape, dtype=np.int64)
    offset = 0
    for level in np.unique(image):
        if level == 0:
            continue
        mask = image == level
        ids, n = ndimage.label(mask, structure=STRUCTURE_8)
        out[mask] = ids[mask] + offset
        offset += n
    return out


def label_reference(image: np.ndarray, *, grey: bool) -> np.ndarray:
    """Canonical 8-connected labels of ``image`` (grey: equal levels only)."""
    return canonicalize(component_ids(image, grey=grey))


def histogram_reference(image: np.ndarray, k: int) -> np.ndarray:
    """``k``-bin grey-level histogram."""
    return np.bincount(np.asarray(image).ravel(), minlength=k).astype(np.int64)


def check_labels(output, reference_digest: str) -> bool:
    """True when ``output`` equals the reference labelling exactly."""
    return output is not None and digest(output) == reference_digest


def check_histogram(output, reference: np.ndarray) -> bool:
    """True when ``output`` equals the reference histogram bin for bin."""
    if output is None:
        return False
    out = np.asarray(output)
    return out.shape == reference.shape and bool(np.array_equal(out, reference))


def dihedral(array: np.ndarray, d: int) -> np.ndarray:
    """One of the 8 symmetries of the square: ``d % 4`` quarter turns, then
    a transpose when ``d >= 4``.  8-connectivity is invariant under all of
    them, so a labelling transforms with its image."""
    out = np.rot90(array, d % 4)
    if d >= 4:
        out = out.T
    return np.ascontiguousarray(out)


def level_permutation(rng, k: int = 256) -> np.ndarray:
    """A lookup table that permutes the non-zero grey levels and keeps 0."""
    lut = np.zeros(k, dtype=np.int32)
    lut[1:] = rng.permutation(np.arange(1, k, dtype=np.int32))
    return lut


def variant(base: np.ndarray, d: int, lut: np.ndarray) -> np.ndarray:
    """``base`` with its grey levels mapped by ``lut``, seen through symmetry
    ``d``.  A level permutation keeps every component and a symmetry moves
    the components with the pixels, so its labels follow from the base's
    (:meth:`ReferenceCache.variant_labels`) and its histogram is the base's
    with the bins permuted."""
    return dihedral(lut[base], d)


class ReferenceCache:
    """Label-reference digests keyed by input digest, kept in a JSON file so
    a scene seen by an earlier run is not labelled again."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as f:
                self._digests = json.load(f)
        except (OSError, ValueError):
            self._digests = {}
        self._ids: dict[str, np.ndarray] = {}  # component ids per base digest

    def get(self, key: str, compute) -> str:
        """The digest stored under ``key``, computed and saved on a miss."""
        if key not in self._digests:
            self._digests[key] = compute()
            tmp = self.path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(self._digests, f)
            os.replace(tmp, self.path)
        return self._digests[key]

    def labels(self, image: np.ndarray, *, grey: bool) -> str:
        return self.get(f"{digest(image)}:{'grey' if grey else 'binary'}",
                        lambda: digest(label_reference(image, grey=grey)))

    def variant_labels(self, base: np.ndarray, d: int) -> str:
        """Grey labels of ``variant(base, d, lut)`` for any level permutation
        ``lut``: those of ``base`` moved by symmetry ``d``."""
        key = digest(base)

        def compute():
            if key not in self._ids:
                self._ids[key] = component_ids(base, grey=True)
            return digest(canonicalize(dihedral(self._ids[key], d)))

        return self.get(f"{key}:grey:symmetry{d}", compute)
