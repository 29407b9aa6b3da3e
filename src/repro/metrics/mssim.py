"""Multi-scale SSIM (Wang et al. 2003) in pure numpy.

The paper uses MSSIM as its static estimator of how much accuracy a
scan group costs (§6.4, Figures 13/23). No scipy/PIL is available in
this container, so the Gaussian window and the dyadic downsampling are
implemented directly with sliding windows.
"""
import numpy as np

from repro.jpeg.codec import to_gray

_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])
_K1, _K2, _L = 0.01, 0.03, 255.0
_WIN = 11
_SIGMA = 1.5


def _gaussian_kernel() -> np.ndarray:
    x = np.arange(_WIN) - _WIN // 2
    k = np.exp(-(x**2) / (2 * _SIGMA**2))
    return k / k.sum()


_KERNEL = _gaussian_kernel()


def _filter(img: np.ndarray) -> np.ndarray:
    """Valid-mode separable Gaussian filter via sliding windows."""
    w = np.lib.stride_tricks.sliding_window_view(img, _WIN, axis=0)
    img = np.tensordot(w, _KERNEL, axes=([2], [0]))
    w = np.lib.stride_tricks.sliding_window_view(img, _WIN, axis=1)
    return np.tensordot(w, _KERNEL, axes=([2], [0]))


def _downsample(img: np.ndarray) -> np.ndarray:
    h, w = (img.shape[0] // 2) * 2, (img.shape[1] // 2) * 2
    t = img[:h, :w]
    return (t[0::2, 0::2] + t[1::2, 0::2] + t[0::2, 1::2] + t[1::2, 1::2]) / 4.0


def _ssim_cs(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean SSIM and mean contrast-structure term at one scale."""
    c1, c2 = (_K1 * _L) ** 2, (_K2 * _L) ** 2
    mx, my = _filter(x), _filter(y)
    mxx, myy, mxy = _filter(x * x), _filter(y * y), _filter(x * y)
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    cs = (2 * cov + c2) / (vx + vy + c2)
    ssim = ((2 * mx * my + c1) / (mx**2 + my**2 + c1)) * cs
    return float(ssim.mean()), float(cs.mean())


def msssim(a: np.ndarray, b: np.ndarray) -> float:
    """Multi-scale SSIM of the luma of two HxWx3 uint8 RGB images, in [~0, 1].

    The number of scales adapts to image size (each scale must stay at
    least as large as the 11-pixel window); weights are renormalized.
    """
    x, y = to_gray(a), to_gray(b)
    levels = 1
    s = min(x.shape)
    while levels < len(_WEIGHTS) and s // 2 >= _WIN:
        levels += 1
        s //= 2
    w = _WEIGHTS[:levels] / _WEIGHTS[:levels].sum()
    vals = []
    for lvl in range(levels):
        ssim, cs = _ssim_cs(x, y)
        vals.append(ssim if lvl == levels - 1 else cs)
        if lvl < levels - 1:
            x, y = _downsample(x), _downsample(y)
    vals = np.clip(np.array(vals), 1e-6, None)
    return float(np.prod(vals**w))
