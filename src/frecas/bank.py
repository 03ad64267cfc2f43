"""Training-free analytic denoiser: the exact posterior-mean predictor over
a finite latent bank, with conditional/unconditional modes and synthesized
patchwise attention maps.

For a bank {(x_k, class_k, w_k)} and a latent z_t = scale x + sigma eps (see
:func:`frecas.schedule.forward_model`), the Bayes-optimal clean-signal
estimate is

    p_k    ~  w_k * exp(-||z_t - scale x_k||^2 / (2 sigma^2))
    z0     =  sum_k p_k x_k
    field  =  (z_t - c z0) / sigma

over all K items; a condition zeroes the weights outside its class, one
slice of the bank. The field is the noise on VP schedules and the velocity
on flow ones. All posterior weights go through log-sum-exp.

Attention maps: the square latent is tiled into a square grid of p x p
patches and each patch gets its own posterior over class ids from
patch-restricted distances, one row of a :class:`CAMap`. These
row-stochastic maps are the analytic analogue of cross-attention weights;
the cascade fuses them across stages and feeds them back via the
``ca_mixture`` argument of :meth:`Posterior.fields`, the one
prediction, which turns its conditional field into a patchwise mixture of
class-conditional posterior means. :meth:`CAMap.check_fit` is the one rule
for whether two maps fit.

One :class:`Posterior` per (latent, t) serves all four uses: the
unconditional, conditional and mixture predictions and the attention map
are all derived from its distances, the patch distances, class evidence
and map on first read. It has two sources, one per layout of the latent.
:func:`blocked_posterior` makes one patch-distance pass over the whole
bank, and keeps it, at a latent held as blocks. A bank holds its
items patch-blocked, (K, P, C*p*p) for the default patch size p of its side,
so each of these is a BLAS product over the bank in place: the pass's cross
terms are one batched matrix-vector product, in the norm expansion
||z_p||^2 - 2 s <z_p, x_kp> + s^2 ||x_kp||^2 with the per-patch bank norms
computed once per bank (:attr:`LatentBank.patch_norms`); the unconditional
and conditional predictions are one (2, k) @ (k, P*C*p*p) product over the
contiguous range of k items that carry weight: the condition masks the
other classes, and weights below :data:`SUPPORT_FLOOR` of a row's max are
dropped, so once the exact empirical denoiser collapses onto one memorized
item, k is often 1. The mixture is one (P, 1, K) @ (P, K, C*p*p) product
over all K items. A posterior returns its fields in its latent's layout,
so a cascade stage keeps its latent blocked from step to step;
:func:`predict`, the grid form of the conditional field, is the one entry
for a (C, H, W) grid latent and forms no evidence or map.

Under plain guidance a latent stays in the span of its entry latent z_F and
the items, and :class:`BankSpan` holds it as coordinates u over
(z_F, x_1..x_K). :meth:`BankSpan.posterior`, the second source, reads the
bank's whole-item Gram matrix (:attr:`LatentBank.gram`, K x K, built on
first read and kept) in place of the bank: its distances are
G u + u_0 X z_F in the same norm expansion, with X z_F one product over the
bank per span, and its plain means are the coordinates (0, weights). Both
sources weigh items by :func:`plain_weights` and check their distances by
:func:`check_distances`.

Every bank is built as ``LatentBank(items, class_ids, weights)`` from a
stream of items, each blocked as it arrives: an :class:`ItemSource` from
:func:`procedural_items` encodes each procedural item as it is drawn, one
from :func:`saved_items` reads one saved grid at a time, and
:func:`bank_resample` unblocks one item at a time straight into the
resampling kernel, so no build holds a second bank or a list of grids.
:func:`frecas.config.build_bank` resamples its bank once to each earlier
stage side of the plan and keeps those stage banks on it
(:attr:`LatentBank.stage_banks`), where :func:`bank_resample` finds them, so
no run of the plan rebuilds one. An
item source has two consumers, the bank and ``frecas psd``, which transforms
each item as it arrives and holds no bank; both run :func:`check_items`.
Item order is the bank's, not the caller's: items sit stably sorted by class
id, so a class is a slice of the bank, and the i-th item given is in slot
``input_slots[i]``.
"""

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels
from .codec import IDENTITY, LatentCodec, encode
from .grid import LatentGrid, Resolution, read_grid, write_grid
from .schedule import ForwardModel, NoiseSchedule, forward_model

SUPPORT_FLOOR = 2.0**-60
"""Relative weight below which a plain prediction drops an item.

A posterior row is shifted so its max weight is 1 before ``exp``, so the
floor is relative to the max. The kept mass is at least 1 and each of the
at most K dropped items weighs under the floor, so the dropped mass is at
most K * 2^-60 of the kept mass. The posterior mean moves by at most that
fraction of the largest distance between two items, which is below the
float64 epsilon 2^-52 for any bank of fewer than 256 items. Subnormal
weights, which make the bank product slow, never reach it.
"""


@dataclass(frozen=True)
class CAMap:
    """Row-stochastic map from the patches of a square patch grid to classes:
    values is (rows * rows, n_classes), one row per patch in row-major order,
    so its row count is its grid; classes records each column's class id."""

    values: np.ndarray = field(repr=False)
    classes: tuple

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or math.isqrt(v.shape[0]) ** 2 != v.shape[0]:
            raise ValueError(f"values shape {v.shape}: the rows must tile a square patch grid")
        if v.shape[1] != len(self.classes):
            raise ValueError("one column per class required")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("attention values must be finite and non-negative")
        err = np.max(np.abs(v.sum(axis=1) - 1.0))
        if err > 1e-12:
            raise ValueError(f"attention rows deviate from 1 by {err:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))

    def check_fit(self, other: "CAMap") -> None:
        """ValueError unless ``other`` has this map's rows (so grid) and class ids."""
        mine = (len(self.values), self.classes)
        theirs = (len(other.values), other.classes)
        if theirs != mine:
            raise ValueError(f"attention map (rows, classes) {theirs} does not fit {mine}")


class ItemSource(NamedTuple):
    """A bank's K items in the order given, with their class ids and weights.
    ``items`` yields each (C, side, side) grid once, drawn or read as it is
    asked for; ``LatentBank(*source)`` builds the bank."""

    items: Iterator
    class_ids: np.ndarray
    weights: np.ndarray


def check_items(items) -> Iterator[np.ndarray]:
    """Each item as a float64 array, once it passes the one item check of
    every consumer of a bank's items: a square (C, H, W) grid of the first
    item's shape, with finite values."""
    shape = None
    for count, item in enumerate(items):
        item = np.asarray(item, dtype=np.float64)
        if shape is None:
            if item.ndim != 3 or item.shape[1] != item.shape[2]:
                raise ValueError(f"bank items must be square (C, H, W) grids, got {item.shape}")
            shape = item.shape
        if item.shape != shape:
            raise ValueError(f"bank item {count} has shape {item.shape}, not {shape}")
        if not np.all(np.isfinite(item)):
            raise ValueError("bank items must be finite")
        yield item


class LatentBank:
    """Finite latent distribution: K items, their class ids and prior weights.

    The items are square (C, side, side) grids held patch-blocked, in the
    layout every bank product reads: ``blocks`` is (K, P, C*p*p) with
    p = default_patch_size(side), and ``blocks[k, i]`` is the i-th p x p
    patch of item k (see :mod:`frecas._kernels`). :meth:`item` unblocks one
    item; no (K, C, side, side) stack is kept.
    Items sit stably sorted by class id: the c-th smallest id ``classes[c]``
    owns ``class_sizes[c]`` slots from ``class_starts[c]``, and the i-th item
    given sits in slot ``input_slots[i]``; all are computed once, here.
    ``stage_banks`` is a read-only mapping from a side to this bank
    resampled there, which :func:`bank_resample` returns; it is empty but on
    a bank from :func:`frecas.config.build_bank`, which sets it once.
    """

    def __init__(self, items, class_ids, weights):
        """``items`` yields the K items of ``class_ids`` and ``weights``, as a
        (K, C, side, side) stack or any iterable of grids. Each passes
        :func:`check_items` and is blocked into its slot as it arrives, so a
        generator build never holds a second copy."""
        ids = np.ascontiguousarray(class_ids, dtype=np.int64)
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if ids.ndim != 1 or ids.size < 1 or w.shape != ids.shape:
            raise ValueError("class_ids and weights must have one entry per item, K >= 1")
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be positive and sum to 1")
        order = np.argsort(ids, kind="stable")
        slots = np.argsort(order)
        blocks, count = None, 0
        for item in check_items(items):
            if count == ids.size:
                raise ValueError("class_ids and weights must have one entry per item")
            if blocks is None:
                shape, p = item.shape, default_patch_size(item.shape[1])
                blocks = np.empty((ids.size, (shape[1] // p) ** 2, shape[0] * p * p))
            _kernels.to_blocks(item, p, out=blocks[slots[count]])
            count += 1
        if count != ids.size:
            raise ValueError("class_ids and weights must have one entry per item")
        ids, w = ids[order], w[order]
        classes, starts, sizes = np.unique(ids, return_index=True, return_counts=True)
        log_weights = np.log(w)
        for a in (blocks, ids, w, log_weights, slots, starts, sizes):
            a.setflags(write=False)
        self.blocks, self.class_ids, self.weights, self.log_weights = blocks, ids, w, log_weights
        self.item_shape, self.patch_size, self.input_slots = shape, p, slots
        self.classes, self.class_starts, self.class_sizes = tuple(classes.tolist()), starts, sizes
        self.stage_banks = MappingProxyType({})

    @property
    def size(self) -> int:
        return self.blocks.shape[0]

    @property
    def channels(self) -> int:
        return self.item_shape[0]

    @property
    def side(self) -> int:
        return self.item_shape[1]

    def block(self, x: np.ndarray) -> np.ndarray:
        """A (C, side, side) array as (P, C*p*p) blocks in this bank's layout."""
        return _kernels.to_blocks(x, self.patch_size)

    def unblock(self, blocks: np.ndarray) -> np.ndarray:
        """(P, C*p*p) blocks in this bank's layout as a (C, side, side) array."""
        return _kernels.from_blocks(blocks, self.item_shape, self.patch_size)

    def item(self, k: int) -> LatentGrid:
        return LatentGrid(self.unblock(self.blocks[k]))

    def class_slice(self, condition: int) -> slice:
        """The slots of class ``condition``'s items; ValueError for a class
        id the bank does not hold."""
        if int(condition) not in self.classes:
            raise ValueError(f"unknown class id {condition}")
        c = self.classes.index(int(condition))
        a = int(self.class_starts[c])
        return slice(a, a + int(self.class_sizes[c]))

    @cached_property
    def patch_norms(self) -> np.ndarray:
        """||x_kp||^2 over the patches of every item, (K, P), read-only."""
        norms = _kernels.patch_sq_norms(self.blocks)
        norms.setflags(write=False)
        return norms

    @cached_property
    def gram(self) -> np.ndarray:
        """<x_j, x_k> over whole items, (K, K), read-only; built on first
        read, K^2 * 8 bytes."""
        g = _kernels.gram(self.blocks)
        g.setflags(write=False)
        return g


def bank_resample(bank: LatentBank, target: Resolution) -> LatentBank:
    """Every item bilinearly resampled; ids, weights and ``input_slots``
    preserved. At the bank's own side that is the bank, and at a side of
    its ``stage_banks`` the bank kept there. Otherwise a new bank is built:
    items go one at a time, in the given order, from the bank's blocks
    through the resampling kernel into it."""
    if bank.side == target.side:
        return bank
    if target.side in bank.stage_banks:
        return bank.stage_banks[target.side]
    side, given = target.side, bank.input_slots
    items = (_kernels.bilinear_resample(bank.unblock(bank.blocks[k]), side, side) for k in given)
    return LatentBank(items, bank.class_ids[given], bank.weights[given])


def default_patch_size(side: int) -> int:
    """Largest divisor of side not above side // 8, at least 1."""
    p = max(side // 8, 1)
    while side % p:
        p -= 1
    return p


@dataclass(frozen=True, eq=False, repr=False)
class Posterior:
    """The bank posterior at one (latent, t), shared by every prediction.

    It has two sources. :func:`blocked_posterior` holds the latent ``z`` as
    (P, C*p*p) blocks in the bank's layout and makes one patch-distance pass
    over all K items; :meth:`BankSpan.posterior` holds it as coordinates in
    ``span`` and takes its whole-latent distances from the bank's Gram. The
    unconditional, conditional and mixture fields and the attention map
    ``ca`` derive from the distances without touching the bank again; the
    patch distances, the class evidence and ``ca`` on first read.
    :meth:`fields`, the one prediction, gives the fields in ``z``'s layout.
    """

    bank: LatentBank
    z: np.ndarray  # the latent: (P, C*p*p) blocks, or (K + 1,) coordinates in span
    fwd: ForwardModel  # of the posterior's t
    d_full: np.ndarray  # (K,) whole-latent squared distances
    span: "BankSpan | None" = None

    @cached_property
    def d_patch(self) -> np.ndarray:
        """(K, P) per-item patch squared distances, of the latent's blocks."""
        z = self.z if self.span is None else self.span.latent(self.z)
        return _kernels.patch_sq_dists(self.bank.blocks, z, self.fwd.scale, self.bank.patch_norms)

    @cached_property
    def log_patch(self) -> np.ndarray:
        """(K, P) per-item patch log-weights."""
        return self.bank.log_weights[:, None] - self.d_patch / (2.0 * self.fwd.var)

    @cached_property
    def evidence(self) -> np.ndarray:
        """(n_classes, P) per-class patch log-evidence: the LSE over each class's
        slice, shifted by that class's own max so a far class stays finite."""
        starts = self.bank.class_starts
        top = np.maximum.reduceat(self.log_patch, starts, axis=0)
        shifted = np.exp(self.log_patch - np.repeat(top, self.bank.class_sizes, axis=0))
        return top + np.log(np.add.reduceat(shifted, starts, axis=0))

    @cached_property
    def ca(self) -> CAMap:
        """Patchwise class responsibilities of the whole bank, unconditioned."""
        resp = np.exp(self.evidence - self.evidence.max(axis=0))
        return CAMap((resp / resp.sum(axis=0)).T, self.bank.classes)

    def fields(self, condition: int | None, ca_mixture: CAMap | None = None):
        """The predicted noise (VP) or velocity (flow) without and with
        ``condition``, the pair guidance combines, in ``z``'s layout; both
        plain fields are one product over the bank, or none in coordinates.

        A ``ca_mixture`` that fits ``ca`` (:meth:`CAMap.check_fit`) makes the
        conditional clean-signal estimate a patchwise mixture: each patch
        mixes the class-conditional posterior means with the map's weights,
        which is how fused attention maps from an earlier stage steer the
        layout. A mixture leaves the bank span, so it takes blocks.
        """
        if condition is not None:
            self.bank.class_slice(condition)  # the unknown-class check
        if ca_mixture is None:
            z0s = self._plain_z0([None, condition])
        else:
            self.ca.check_fit(ca_mixture)
            z0s = self._plain_z0([None])[0], self._mixture_z0(ca_mixture)
        return tuple(self.fwd.field(self.z, z0) for z0 in z0s)

    def _plain_z0(self, conditions) -> np.ndarray:
        """Posterior means from :func:`plain_weights` at this posterior's
        distances and t, in ``z``'s layout: the coordinates (0, weights), or
        (len(conditions), P, D) blocks from one product over the kept item
        range, a view of the bank: (n, hi - lo) @ (hi - lo, P*D)."""
        post, lo, hi = plain_weights(self.bank, self.d_full, self.fwd.var, conditions)
        if self.span is not None:
            z0 = np.zeros((len(conditions), self.bank.size + 1))
            z0[:, 1:] = post
            return z0
        blocks = self.bank.blocks
        z0 = post[:, lo:hi] @ blocks[lo:hi].reshape(hi - lo, -1)
        return z0.reshape(len(conditions), *blocks.shape[1:])

    def _mixture_z0(self, ca_mixture: CAMap) -> np.ndarray:
        """Within-class patch posteriors times the mixture weight of each
        item's class, mixed per patch: (P, D) blocks."""
        bank, sizes = self.bank, self.bank.class_sizes
        item_resp = np.exp(self.log_patch - np.repeat(self.evidence, sizes, axis=0))  # (K, P)
        mix = np.repeat(ca_mixture.values.T, sizes, axis=0)  # (K, P)
        return _kernels.patch_mix(bank.blocks, item_resp * mix)


def plain_weights(bank: LatentBank, d_full: np.ndarray, var: float, conditions):
    """(weights, lo, hi): the (len(conditions), K) posterior weights at
    whole-latent distances ``d_full`` and noise variance ``var``, a
    condition masking all but its class's slice (:meth:`LatentBank.class_slice`)
    and each row's weights below :data:`SUPPORT_FLOOR` of its max set to 0,
    and the contiguous item range ``[lo, hi)`` that holds every kept weight
    of every row. The one weight rule of both plain routes: the dense
    :class:`Posterior` and :class:`BankSpan`'s coordinates."""
    lw = bank.log_weights - d_full / (2.0 * var)
    post = np.empty((len(conditions), bank.size))
    for row, condition in zip(post, conditions):
        row[:] = lw
        if condition is not None:
            own = bank.class_slice(condition)
            row[:own.start] = row[own.stop:] = -np.inf
        row -= row.max()
        np.exp(row, out=row)
        row[row < SUPPORT_FLOOR] = 0.0
        row /= row.sum()
    kept = np.flatnonzero(post.any(axis=0))
    return post, kept[0], kept[-1] + 1


def check_distances(d_full: np.ndarray, var: float, t: float) -> None:
    """ValueError unless the whole-latent distances and the noise variance
    at t define a posterior: no distance overflows, and var is a normal
    float with every distance over 2 var below the float max."""
    d_max = d_full.max()
    info = np.finfo(float)
    if var >= info.tiny and not np.isfinite(d_max):
        raise ValueError(f"latent distances to the bank overflow at t = {t:g}")
    # zero noise: var is 0 or subnormal, or a distance over 2 var would reach
    # max / 2 (var * max itself cannot overflow for var <= 1)
    if not (var >= info.tiny and d_max < var * info.max):
        raise ValueError(f"denoiser undefined at zero noise level, t = {t:g}")


def blocked_posterior(bank: LatentBank, z: np.ndarray, t: float,
                      sched: NoiseSchedule) -> Posterior:
    """The bank posterior at a latent given as (P, C*p*p) blocks in the
    bank's layout, which the caller keeps finite and of the bank's shape:
    one patch-distance pass over the bank at its patch size, the default
    one of the latent's side, whose row sums are checked by
    :func:`check_distances` and kept as the posterior's ``d_patch``."""
    fwd = forward_model(sched, t)
    d_patch = _kernels.patch_sq_dists(bank.blocks, z, fwd.scale, bank.patch_norms)
    post = Posterior(bank, z, fwd, d_patch.sum(axis=1))
    check_distances(post.d_full, fwd.var, t)
    object.__setattr__(post, "d_patch", d_patch)
    return post


@dataclass(frozen=True, eq=False, repr=False)
class BankSpan:
    """The latents z = u_0 z_F + sum_k u_k x_k that an entry latent z_F and
    the K bank items span, each held as its coordinates u, a (K + 1,) vector.

    A plain-guidance step keeps its latent in this span: the plain
    posterior means are combinations of bank items, with coordinates
    (0, weights), and the DDIM and flow-Euler updates are linear in the
    latent and the mean. In coordinates the distances take the bank's Gram
    matrix (:attr:`LatentBank.gram`) and the entry's cross terms
    <x_k, z_F>, one product over the bank made here, and no pass over the
    bank per step.
    """

    bank: LatentBank
    entry: np.ndarray  # (P, C*p*p) z_F, patch-blocked
    entry_cross: np.ndarray  # (K,) <x_k, z_F>
    entry_sq: float  # ||z_F||^2

    @classmethod
    def of(cls, bank: LatentBank, entry: np.ndarray) -> "BankSpan":
        """The span of ``entry``, (P, C*p*p) blocks in the bank's layout."""
        flat = entry.reshape(-1)
        return cls(bank, entry, bank.blocks.reshape(bank.size, -1) @ flat, float(flat @ flat))

    def distances(self, u: np.ndarray, scale: float) -> np.ndarray:
        """||z - scale x_k||^2 of the latent with coordinates u, (K,): the
        norm expansion, with <z, x_k> = (G u_1:)_k + u_0 <z_F, x_k> and
        ||z||^2 from the same cross terms. Clamped at 0 like the dense pass."""
        gram, c = self.bank.gram, u[1:]
        cross = gram @ c
        cross += u[0] * self.entry_cross
        sq = u[0] * (u[0] * self.entry_sq + self.entry_cross @ c) + c @ cross
        d = (-2.0 * scale) * cross
        d += sq
        d += (scale * scale) * np.diagonal(gram)
        return np.maximum(d, 0.0, out=d)

    def latent(self, u: np.ndarray) -> np.ndarray:
        """The latent with coordinates u, as (P, C*p*p) blocks: one product
        over the bank."""
        blocks = self.bank.blocks
        z = (u[1:] @ blocks.reshape(self.bank.size, -1)).reshape(blocks.shape[1:])
        z += u[0] * self.entry
        return z

    def posterior(self, u: np.ndarray, t: float, sched: NoiseSchedule) -> Posterior:
        """The bank posterior at the latent with coordinates u: its
        :meth:`distances`, checked by :func:`check_distances`, and no pass
        over the bank. Its plain fields are coordinates too."""
        fwd = forward_model(sched, t)
        d_full = self.distances(u, fwd.scale)
        check_distances(d_full, fwd.var, t)
        return Posterior(self.bank, u, fwd, d_full, self)


def predict(
    bank: LatentBank,
    z_t: LatentGrid,
    t: float,
    condition: int | None,
    sched: NoiseSchedule,
):
    """The plain conditional field, as a grid, at a grid latent z_t of the
    bank's shape: :meth:`Posterior.fields` of the :func:`blocked_posterior`
    of its blocks, which forms no class evidence or map; see :class:`Posterior`."""
    if bank.item_shape != z_t.shape:
        raise ValueError(f"latent shape {z_t.shape} does not match bank {bank.item_shape}")
    post = blocked_posterior(bank, bank.block(z_t.data), t, sched)
    return LatentGrid(bank.unblock(post.fields(condition)[1]))


# ---------------------------------------------------------------------------
# procedural banks
# ---------------------------------------------------------------------------

# Octave gains keyed by upsampling factor (side / octave). They are a
# nonnegative least-squares fit of the measured radial densities of
# bilinear-upsampled white layers to a 1/f power target, so the aggregate
# texture has a natural-image-like pink spectrum. Much steeper spectra bury
# the high-band signal estimate under the clamp floor of the PSD
# decomposition and the coarse-to-fine trend disappears.
_OCTAVE_GAINS = {16: 3.534, 8: 4.957, 4: 3.833, 2: 11.317, 1: 12.333}
# Shapes distinguish the classes. Their amplitude stays small and items get
# no per-class mean offset: concentrated DC energy drowns the low-frequency
# bins of the radial curve and flips the coarse-to-fine trend.
_SHAPE_AMPLITUDE = 0.2


def _octaves(side: int) -> tuple:
    """(octave side, gain) of each value-noise octave at ``side``, coarse to
    fine; the last is the side itself."""
    return tuple((side // factor, gain)
                 for factor, gain in sorted(_OCTAVE_GAINS.items(), reverse=True)
                 if side // factor >= 2)


def _interpolation_rows(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) matrix of the bilinear taps of :func:`_kernels._taps`:
    row i weighs the two samples that output sample i lerps between."""
    lo, hi, f = _kernels._taps(n_in, n_out)
    rows = np.zeros((n_out, n_in))
    out = np.arange(n_out)
    rows[out, lo] = 1.0 - f
    rows[out, hi] = f
    return rows


@lru_cache
def _synthesis(side: int):
    """The x matrices R_o^T, one (o, side) per coarser octave (o, gain) of
    ``side``, and the (side, sum of o) y matrix whose columns are the
    octaves' rows R_o, each scaled by its gain; memoized, so the arrays are
    read-only. They serve the value-noise generator alone: every resample
    of a grid or a bank goes through :func:`_kernels.bilinear_resample`."""
    coarse = _octaves(side)[:-1]
    xs = tuple(np.ascontiguousarray(_interpolation_rows(o, side).T) for o, _ in coarse)
    y = np.concatenate([gain * _interpolation_rows(o, side) for o, gain in coarse], axis=1)
    for a in (*xs, y):
        a.setflags(write=False)
    return xs, y


def _value_noise(rng, side: int, channels: int) -> np.ndarray:
    """(channels, side, side) sum of bilinear-upsampled white octaves, each
    scaled by its ``_OCTAVE_GAINS`` gain. The coarse grids are drawn channel
    by channel, each channel's octaves coarse to fine, straight into one
    (channels, o, o) array per octave. Upsampling the coarser octaves and
    summing them is one linear map, done as products: each octave is
    interpolated along x by one matmul over all channels, (channels, o, o)
    @ R_o^T, into its rows of a (channels, sum of o, side) stack, and the
    whole stack along y by one matmul with the gain-weighted rows of every
    octave (:func:`_synthesis`). The finest octave, at the side itself, is
    added as drawn, times its gain; a side too small for a coarser octave
    (2 or 3) is that octave alone."""
    octaves = _octaves(side)
    draws = [np.empty((channels, o, o)) for o, _ in octaves]
    for c in range(channels):
        for octave in draws:
            rng.standard_normal(out=octave[c])
    *coarse, (_, gain) = octaves
    finest = draws.pop()
    finest *= gain
    if not coarse:
        return finest
    xs, y = _synthesis(side)
    stack = np.empty((channels, y.shape[1], side))
    start = 0
    for layer, x in zip(draws, xs):
        np.matmul(layer, x, out=stack[:, start:start + len(x)])
        start += len(x)
    acc = np.matmul(y, stack)
    acc += finest
    return acc


def _shape_mask(rng, side: int, kind: int) -> np.ndarray:
    yy = np.arange(side).reshape(side, 1)
    xx = np.arange(side).reshape(1, side)
    cy, cx = rng.integers(side // 4, 3 * side // 4, 2)
    r = int(rng.integers(side // 8, max(side // 3, side // 8 + 1)))
    if kind == 0:  # disk
        return ((yy - cy) ** 2 + (xx - cx) ** 2 < r * r).astype(float)
    if kind == 1:  # rectangle
        return ((np.abs(yy - cy) < r) & (np.abs(xx - cx) < r // 2 + 1)).astype(float)
    if kind == 2:  # ring
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return ((d2 < r * r) & (d2 > (r // 2) ** 2)).astype(float)
    return (np.abs((yy - cy) + (xx - cx)) < r // 2 + 1).astype(float)  # diagonal bar


def _value_noise_items(rng, side, channels, ids):
    """Multi-octave value-noise textures plus geometric shapes, one item per
    class id; classes differ by shape vocabulary. Each texture is centred
    and scaled to unit std, its class's two shapes, each scaled by its own
    draw, are summed at (side, side) and added to every channel at once,
    and the item is scaled to unit std again. Both stds are numpy
    reductions, not BLAS dots, so an item's bytes do not depend on the
    BLAS thread count."""
    for cls in ids:
        item = _value_noise(rng, side, channels)
        item -= item.mean()
        item /= math.sqrt(np.square(item).mean())  # the std, as the mean is 0
        shapes = np.zeros((side, side))
        for _ in range(2):
            mask = _shape_mask(rng, side, cls % 4)
            mask *= _SHAPE_AMPLITUDE * float(rng.normal())
            shapes += mask
        item += shapes
        item /= item.std()
        yield item


def _white_items(rng, side, channels, ids):
    """Pure white noise, a control with no coarse-to-fine structure."""
    for _ in ids:
        yield rng.standard_normal((channels, side, side))


_ITEMS = {"value_noise": _value_noise_items, "white": _white_items}


def procedural_items(kind: str, side: int, channels=3, n_items=100, n_classes=4, seed=0,
                     codec: LatentCodec = IDENTITY) -> ItemSource:
    """The items of a procedural bank of ``kind`` (value_noise | white):
    ``n_items`` image items of ``channels`` x ``side`` x ``side``, ids
    ``k % n_classes`` and equal weights. Each item is drawn and encoded by
    ``codec`` when it is asked for, so the items are codes, e.g.
    (4 * channels, side / 2, side / 2) for Haar."""
    if kind not in _ITEMS:
        raise ValueError(f"unknown bank kind {kind!r}")
    ids = np.arange(n_items, dtype=np.int64) % n_classes
    images = _ITEMS[kind](np.random.default_rng(int(seed)), side, channels, ids)
    return ItemSource((encode(codec, LatentGrid(x)).data for x in images), ids,
                      np.full(n_items, 1.0 / n_items))


def make_bank(*args, **kwargs) -> LatentBank:
    """The bank of :func:`procedural_items` at these arguments."""
    return LatentBank(*procedural_items(*args, **kwargs))


def save_bank(directory, bank: LatentBank) -> None:
    """Directory of raw grid dumps plus a manifest of ids and weights, in the
    order the items were given, so :func:`load_bank` restores ``input_slots``;
    the first grid written makes the directory."""
    lines = []
    for i, k in enumerate(bank.input_slots):
        name = f"item_{i:04d}.frcg"
        write_grid(os.path.join(directory, name), bank.item(k))
        lines.append(f"{name} {int(bank.class_ids[k])} {bank.weights[k]:.17g}")
    with open(os.path.join(directory, "manifest.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def saved_items(directory) -> ItemSource:
    """The items of a bank written by :func:`save_bank`, weights normalised
    to sum to 1. The whole manifest is checked here; each grid is read when
    it is asked for."""
    manifest = os.path.join(directory, "manifest.txt")
    entries = []
    with open(manifest) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                name, cls, weight = line.split()
                cls, weight = int(cls), float(weight)
                if not (-2**63 <= cls < 2**63 and 0.0 < weight < np.inf):
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{manifest}:{lineno}: expected 'filename class_id weight' with an "
                    f"int64 class id and a positive finite weight, got {line.strip()!r}"
                ) from None
            entries.append((name, cls, weight))
    if not entries:
        raise ValueError(f"{manifest}: no bank items")
    names, ids, w = zip(*entries)
    w = np.asarray(w) / max(w)  # so the sum cannot overflow near the float max
    items = (read_grid(os.path.join(directory, name)).data for name in names)
    return ItemSource(items, np.array(ids, dtype=np.int64), w / w.sum())


def load_bank(directory) -> LatentBank:
    """The bank of :func:`saved_items` in ``directory``."""
    return LatentBank(*saved_items(directory))
