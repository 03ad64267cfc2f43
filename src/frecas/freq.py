"""Frequency-domain machinery: the low/high band split used by
frequency-aware guidance, radially binned power spectral density curves, and
the total/noise/signal PSD decomposition of noisy latents.

The low-pass operator is literally "bilinear down to the base resolution,
bilinear back up"; the high band is the residual, so low + high reconstructs
the input to one floating addition per element. No Fourier-domain brick-wall
filter is involved.

PSD convention: per-mode power is |F_kx,ky|^2 / (H*W)^2 with F the
unnormalized 2-D DFT, so the sum of mode powers equals the mean square of
the grid (Parseval) and a unit white-noise field has expected per-mode power
1 / (H*W). Modes are assigned to radial bins
by rounding their wrapped radial frequency sqrt(kx'^2 + ky'^2) to the
nearest bin center; corner modes beyond the last center fold into the last
bin. Bin power is the mean over channels of the mean power of assigned modes.

Half-plane convention: a real grid's DFT is conjugate-symmetric,
F_-k = conj F_k, so the power of mode -k equals that of k and sits at the
same radius. Spectra are therefore taken with rfft2, which keeps columns
0..side // 2. Each column 1..(side + 1) // 2 - 1 stands for itself and its
mirror and counts twice; column 0 and, at an even side, the Nyquist column
side / 2 are their own mirrors and count once. Bin means divide by the
full-plane mode count. The same holds for the cross power Re(F_k conj G_k)
of two real grids, which the PSD decomposition bins alongside |F_k|^2.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import LatentGrid, Resolution
from .schedule import NoiseSchedule, forward_model, require_vp


def nyquist(res: Resolution) -> float:
    """Highest representable radial frequency, side / 2."""
    return res.side / 2.0


def band_split(x: np.ndarray, base_side: int, out=None):
    """(low, high) of a (C, side, side) array: the frequencies below the base
    Nyquist, low = up(down(x, base_side)), and the residual above,
    high = x - low, written into ``out`` when given. Constants survive the
    round trip exactly, so a constant array has zero high band. At x's own
    side low is x itself and high is 0, so ``out`` may be x only below that
    side. ValueError for a non-square array or a base above its side."""
    side = x.shape[1]
    if x.shape[2] != side:
        raise ValueError(f"band_split needs a square grid, got {side}x{x.shape[2]}")
    if base_side > side:
        raise ValueError(f"base side {base_side} exceeds grid side {side}")
    low = x
    if base_side < side:
        down = _kernels.bilinear_resample(x, base_side, base_side)
        low = _kernels.bilinear_resample(down, side, side)
    return low, np.subtract(x, low, out=out)


def _binning(res: Resolution):
    """The radial bins of a resolution: side // 2 of them, each
    nyquist / n_bins wide, bin i centred on i * nyquist / n_bins."""
    n_bins = res.side // 2
    return n_bins, nyquist(res) / n_bins


@dataclass(frozen=True)
class PsdCurve:
    """Radially binned power spectral density, channel-mean, on its resolution's bins."""

    power: np.ndarray
    resolution: Resolution

    def __post_init__(self):
        p = np.asarray(self.power, dtype=np.float64)
        if p.shape != (self.n_bins,):
            raise ValueError(f"power must hold side // 2 = {self.n_bins} bins, got {p.shape}")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("power must be finite and non-negative")
        p.setflags(write=False)
        object.__setattr__(self, "power", p)

    @property
    def n_bins(self) -> int:
        return _binning(self.resolution)[0]

    @property
    def freqs(self) -> np.ndarray:
        """Bin centre frequencies i * nyquist / n_bins, correctly rounded."""
        n_bins = self.n_bins
        return np.arange(n_bins) * nyquist(self.resolution) / n_bins

    @property
    def low_bins(self) -> int:
        """Bins in the low band: a quarter of them, rounded half to even, at least 1."""
        return max(round(self.n_bins / 4), 1)


@functools.lru_cache
def _radial_bins(side: int):
    """(bin of each rfft2 mode, flattened; full-plane modes per bin) at a
    side, by the rule in the module docstring."""
    n_bins, width = _binning(Resolution(side))
    k = np.fft.fftfreq(side) * side  # wrapped integer frequencies
    r = np.hypot(*np.meshgrid(k, k, indexing="ij"))
    idx = np.minimum(np.rint(r / width).astype(np.intp), n_bins - 1)
    counts = np.bincount(idx.ravel(), minlength=n_bins)
    # rfft2 keeps columns 0..side // 2; the full plane's column side // 2 at
    # an even side is the Nyquist column, whose radius has the same bin
    half = idx[:, : side // 2 + 1].ravel()
    half.setflags(write=False)
    counts.setflags(write=False)
    return half, counts


def _binned(p: np.ndarray) -> np.ndarray:
    """Bin powers of a (C, side, side // 2 + 1) per-mode product of two
    rfft2 spectra: its channel mean, with each column that stands for itself
    and its mirror counted twice, summed per bin and divided by the bin's
    full-plane mode count and (H*W)^2."""
    side = p.shape[-2]
    idx, counts = _radial_bins(side)
    p = p.mean(axis=0)
    p[:, 1:(side + 1) // 2] *= 2
    sums = np.bincount(idx, weights=p.ravel(), minlength=counts.size)
    return sums / (counts * float(side * side) ** 2)


def _spectrum(g: LatentGrid) -> np.ndarray:
    """The rfft2 of each channel of a square grid."""
    if g.height != g.width:
        raise ValueError(f"PSD needs a square grid, got {g.height}x{g.width}")
    return np.fft.rfft2(g.data)


def radial_psd(g: LatentGrid) -> PsdCurve:
    """Radially binned PSD in side // 2 equal-width bins up to Nyquist."""
    f = _spectrum(g)
    return PsdCurve(_binned(f.real**2 + f.imag**2), Resolution(g.height))


def psd_decomposition(z0: LatentGrid, noise: LatentGrid, timesteps, sched: NoiseSchedule) -> np.ndarray:
    """PSD decomposition of one latent forward-diffused by one noise draw.

    Returns a (len(timesteps), 3, side // 2) power array holding, per
    timestep, the curves of the noisy latent (total), of its injected noise
    sigma_t * eps (var_t times the curve of eps) and the clamped difference
    max(total - noise, 0) estimating the clean-signal energy per band.
    z0 and eps are transformed once: the noisy latent's mode power is
    |s F z0 + sigma F eps|^2 = s^2 |F z0|^2 + 2 s sigma Re(F z0 conj F eps)
    + var |F eps|^2, so each curve is a weighted sum of three binned
    products, and total, a sum of squares, is clamped at 0.
    """
    if z0.shape != noise.shape:
        raise ValueError(f"shape mismatch: {z0.shape} vs {noise.shape}")
    require_vp(sched)
    fz, fe = _spectrum(z0), _spectrum(noise)
    bz = _binned(fz.real**2 + fz.imag**2)
    be = _binned(fe.real**2 + fe.imag**2)
    bx = _binned(fz.real * fe.real + fz.imag * fe.imag)
    coeffs = np.array([forward_model(sched, t)[:3] for t in timesteps]).reshape(-1, 3, 1)
    scale, sigma, var = coeffs.transpose(1, 0, 2)  # each (len(timesteps), 1)
    out = np.empty((len(coeffs), 3, bz.size))
    total, noise_part, signal = out.transpose(1, 0, 2)
    np.multiply(var, be, out=noise_part)
    np.maximum(scale**2 * bz + 2 * scale * sigma * bx + noise_part, 0.0, out=total)
    np.subtract(total, noise_part, out=signal)
    np.maximum(signal, 0.0, out=signal)
    return out


def band_energy_fractions(curve: PsdCurve):
    """(low, high) shares of the curve's energy; low = lowest bins."""
    cut = curve.low_bins
    total = float(curve.power.sum())
    if total == 0.0:
        return 0.0, 0.0
    low = float(curve.power[:cut].sum())
    return low / total, (total - low) / total


def write_psd_csv(path, total: PsdCurve, noise: PsdCurve, signal: PsdCurve) -> None:
    """CSV with header bin,freq,psd_total,psd_noise,psd_signal."""
    if not (total.resolution == noise.resolution == signal.resolution):
        raise ValueError("curves must share a resolution")
    lines = ["bin,freq,psd_total,psd_noise,psd_signal"]
    rows = zip(total.freqs, total.power, noise.power, signal.power)
    lines += [f"{i},{freq:.17g},{a:.17g},{b:.17g},{c:.17g}"
              for i, (freq, a, b, c) in enumerate(rows)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
