"""Dense reference constructions for the path-sparse channel kernels and the
FFT transceiver.

The library stores only the active tap columns of a channel and applies
them with banded kernels batched over symbols, or sums over their paths in
closed form.  The literal dense routes they replaced live here as test
oracles: the full (N, rows, L_ch) tap tensor composed from the stored path
form, the received frame as one convolution with no block split, the per-symbol CP core
R_cp @ M_i @ A_cp, its frequency-time block, and DR-UFMC's delay-domain head
and tail blocks.  The literal subband and CP/tail bookkeeping matrices that the
chains apply by slicing and convolution are here too, with DR-UFMC's stacked
(K*O_s*N) x (K*N) precoder and the KN x KN delay-Doppler to frequency-time
Kronecker factor built from them, as are the linear
guard-count scan that the guard search replaced, the per-frame PSD
transmitter that ``harness.psd_signal`` batches (with the seeded frame loop
that builds a multi-frame signal from it), and the sweep cell that realized
its own channel before grid points shared one.

The modulators and receivers take one K*O_s-point FFT per symbol; the dense
products they replaced are here: the oversampled IDFT W^H of the live rows
plus the CP, DR-UFMC's (K*O_s + L - 1) x K precoder followed by the
continuous-packet overlap-add, and the oversampled DFT W of each kept window.
The dense maps act on column-stacked grids (:func:`vec`, :func:`invec`); the
library keeps a frame as its symbol rows and needs neither.

The dense references the library itself keeps are listed once
(:data:`DENSE_REFERENCES`), with :func:`fence_dense_references` to make them
raise, and :func:`clear_memos` empties every memo of the loaded library.
"""

import sys
from dataclasses import replace

import numpy as np

from ddmod import channel as ch
from ddmod import drufmc, harness, metrics, ofdm, otfs, transforms
from ddmod.config import live_rows
from ddmod.metrics import (
    GuardSearchError,
    avg_spectral_efficiency,
    net_sinr,
    normalized_mse,
    oob_level_db,
    psd_estimate,
    qpsk_grid,
)
from ddmod.transforms import (
    dft_matrix,
    isfft,
    modulated_filter_taps,
    oversampled_dft,
    ufmc_precoder,
)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization; a (..., rows, cols) stack vectorizes each matrix."""
    x = np.asarray(x)
    if x.ndim <= 2:
        return x.flatten(order="F")
    return np.swapaxes(x, -1, -2).reshape(*x.shape[:-2], -1)


def invec(v: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`vec` for a known row count."""
    v = np.asarray(v)
    if v.size % rows != 0:
        raise ValueError(f"dimension mismatch: length {v.size} not divisible by {rows} rows")
    return v.reshape(rows, -1, order="F")


def _ddmod_modules():
    """The loaded ddmod modules."""
    return [m for key, m in sys.modules.items() if key.split(".")[0] == "ddmod"]


def clear_memos() -> set:
    """Empty every memo (``cache_clear``-bearing attribute) of the loaded ddmod
    modules, so each builds afresh on its next call; returns the memos."""
    memos = {value for m in _ddmod_modules() for value in vars(m).values()
             if callable(getattr(value, "cache_clear", None))}
    for memo in memos:
        memo.cache_clear()
    return memos


#: The dense references the benchmark's tracer times, as (owner, name).
DENSE_REFERENCES = [(ofdm, "ofdm_full_effective_channel"), (otfs, "otfs_effective_channel"),
                    (drufmc, "drufmc_effective_channel"), (metrics, "sinr_map"),
                    (metrics, "mmse_detect"), (ch.ChannelMatrixSet, "matrix"),
                    (transforms, "ufmc_precoder"), (transforms, "oversampled_dft")]


def fence_dense_references(monkeypatch):
    """Make each reference raise in every ddmod namespace that binds it (harness binds sinr_map)."""
    def dense(*args, **kwargs):
        raise AssertionError("a dense reference ran")

    for owner, attr in DENSE_REFERENCES:
        original = vars(owner)[attr]
        for ns in [owner] if isinstance(owner, type) else _ddmod_modules():
            for key, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, key, dense)


def crandn(rng, *shape):
    """Complex Gaussian array of ``shape``: unit-variance real and imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def close(a, b, tol):
    """Whether a matches the reference b to ``tol`` relative to max(1, |b|)."""
    return np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


def dense_ofdm_modulate(x_ft, cfg, n_guard: int = 0) -> np.ndarray:
    """:func:`ddmod.ofdm.ofdm_modulate` as W^H[:, live] @ x[live], CP prepended, columnwise vec."""
    live = live_rows(cfg.k, n_guard)
    x_ft = np.asarray(x_ft)
    s = np.empty((*x_ft.shape[:-2], cfg.block_len, cfg.n), dtype=complex)
    s[..., cfg.n_cp:, :] = oversampled_dft(cfg.k, cfg.o_s).conj().T[:, live] @ x_ft[..., live, :]
    s[..., :cfg.n_cp, :] = s[..., cfg.k * cfg.o_s:, :]
    return vec(s)


def overlap_add(x_tilde: np.ndarray, cfg) -> np.ndarray:
    """Continuous-packet overlap of per-symbol filtered blocks.

    Column n keeps its first K*O_s rows and absorbs the previous column's
    tail into its first L - 1 rows; the last column's tail is dropped.  A
    (..., rows, N) stack overlaps each matrix.
    """
    ko = cfg.k * cfg.o_s
    if x_tilde.shape[-2] != ko + cfg.filter_len - 1:
        raise ValueError(
            f"dimension mismatch: expected {ko + cfg.filter_len - 1} rows, got {x_tilde.shape[-2]}"
        )
    n = x_tilde.shape[-1]
    out = x_tilde[..., :ko, :].copy()
    out[..., :cfg.filter_len - 1, 1:] += x_tilde[..., ko:, :n - 1]
    return out


def dense_ufmc_modulate_ft(x_ft, cfg, n_guard: int = 0) -> np.ndarray:
    """:func:`ddmod.drufmc.ufmc_modulate_ft` as the dense precoder's live columns, then
    :func:`overlap_add`."""
    live = live_rows(cfg.k, n_guard)
    x_tilde = ufmc_precoder(cfg)[:, live] @ np.asarray(x_ft)[..., live, :]
    return vec(overlap_add(x_tilde, cfg))


def dense_demodulate(r, cfg, n_cp: int) -> np.ndarray:
    """K x N grid W @ (the K*O_s samples after ``n_cp`` of each of the N received blocks)."""
    r = np.asarray(r)
    return oversampled_dft(cfg.k, cfg.o_s) @ invec(r, r.size // cfg.n)[n_cp:n_cp + cfg.k * cfg.o_s]


def dense_materialize_taps(paths, cfg, rows) -> np.ndarray:
    """Tap tensor h[i, r, l] over every tap column, one outer product per path."""
    ts = cfg.sample_period_s
    l_ch = ch.required_l_ch(paths, cfg)
    taps = np.zeros((cfg.n, rows, l_ch), dtype=complex)
    ell = np.arange(1, l_ch + 1)
    r = np.arange(1, rows + 1)
    half = 0 if cfg.pulse == "ideal" else ch.RRC_HALF_SPAN
    for h_p, tau, nu in zip(paths.gains, paths.delays_s, paths.dopplers_hz):
        delay_samples = tau / ts
        peak = int(round(delay_samples))
        g = np.zeros(l_ch)
        if cfg.pulse == "ideal":
            g[peak] = 1.0
        else:
            lo = max(0, peak - half)
            hi = min(l_ch - 1, peak + half)
            g[lo:hi + 1] = ch.raised_cosine(np.arange(lo, hi + 1) - delay_samples)
        ph_ell = np.exp(2j * np.pi * nu * (ell * ts - ts / 2.0))
        ph_r = np.exp(2j * np.pi * nu * r * ts)
        ph_i = np.exp(2j * np.pi * nu * np.arange(cfg.n) * ts)
        taps += h_p * np.einsum("i,r,l->irl", ph_i, ph_r, g * ph_ell)
    return taps


def dense_taps(chan) -> np.ndarray:
    """The full (N, stored rows, l_ch) tap tensor of a path-form channel: each entry's
    symbol-0 taps times its phase on every symbol, summed into its tap column."""
    out = np.zeros((len(chan), chan.taps.shape[0], chan.l_ch), dtype=complex)
    for e, ell in enumerate(chan.tap_index):
        out[:, :, ell] += chan.phase[:, e, np.newaxis] * chan.taps[:, e]
    return out


def whole_frame_receive(s, paths, cfg) -> np.ndarray:
    """The noiseless received frame of the serialized frame ``s``, with no block split.

    Output sample n (counted from the frame's first sample) is
    sum_l h(n, l) s[n - l] with h(n, l) = sum_p h_p g_p(l) exp(j2*pi*nu_p*(n + l + 3/2)*Ts),
    the in-block tap phase of :func:`ddmod.channel.materialize_taps` (0-based
    row n and column l) running on across the whole frame:
    per path, one linear convolution of ``s`` with its pulse taps, times
    exp(j2*pi*nu_p*n*Ts).  The frame gains L_ch - 1 tail samples.
    """
    ts = cfg.sample_period_s
    s = np.asarray(s)
    n = np.arange(s.size + ch.required_l_ch(paths, cfg) - 1)
    out = np.zeros(n.size, dtype=complex)
    for h_p, tau, nu in zip(paths.gains, paths.delays_s, paths.dopplers_hz):
        # the pulse taps g_p(l): the tap tensor of this path alone, unit gain, at nu = 0
        alone = ch.PathSet(gains=np.ones(1), delays_s=np.array([tau]), dopplers_hz=np.zeros(1))
        g = dense_materialize_taps(alone, replace(cfg, n=1), rows=1)[0, 0].real
        conv = np.convolve(s, g * np.exp(2j * np.pi * nu * (np.arange(g.size) + 1.5) * ts))
        out[:conv.size] += h_p * np.exp(2j * np.pi * nu * n[:conv.size] * ts) * conv
    return out


def cp_core(chan, cfg, i: int) -> np.ndarray:
    """Time-domain K*O_s x K*O_s map R_cp @ M_i @ A_cp of symbol i, from the dense matrix."""
    ko = cfg.k * cfg.o_s
    core = chan.matrix(i)[cfg.n_cp:cfg.n_cp + ko, :]
    if cfg.n_cp > 0:
        folded = core[:, cfg.n_cp:].copy()
        folded[:, ko - cfg.n_cp:] += core[:, :cfg.n_cp]
        return folded
    return core


def dense_ft_block(chan, cfg, i: int) -> np.ndarray:
    """K x K frequency-time channel W @ R_cp @ M_i @ A_cp @ W^H of symbol i."""
    w = oversampled_dft(cfg.k, cfg.o_s)
    return w @ cp_core(chan, cfg, i) @ w.conj().T


def dense_delay_domain_blocks(chan, cfg, m: int) -> tuple[np.ndarray, np.ndarray]:
    """DR-UFMC's K x K head and tail blocks (C_m, D_m) of symbol m, from the dense matrix.

    C_m = F_K^H W M_m[:K*O_s] P_head diag(null) F_K and
    D_m = F_K^H W M_m[:K*O_s, :L-1] P_tail diag(null) F_K, with P_head / P_tail
    the first K*O_s / last L - 1 rows of the precoder.
    """
    ko = cfg.k * cfg.o_s
    f_k = dft_matrix(cfg.k)
    band = f_k.conj().T @ oversampled_dft(cfg.k, cfg.o_s) @ chan.matrix(m)[:ko]
    p = ufmc_precoder(cfg) * ofdm._tx_null(cfg)
    return band @ p[:ko] @ f_k, band[:, :cfg.filter_len - 1] @ p[ko:] @ f_k


def selection_matrix(i: int, b: int, d: int) -> np.ndarray:
    """Diagonal 0/1 matrix selecting subband i (rows i*D .. (i+1)*D-1) out of K = B*D."""
    if not 0 <= i < b:
        raise IndexError(f"subband index {i} out of range for B={b}")
    diag = np.zeros(b * d)
    diag[i * d:(i + 1) * d] = 1.0
    return np.diag(diag)


def subband_conv_matrix(filt: np.ndarray, i: int, k: int, o_s: int, d: int) -> np.ndarray:
    """Tall Toeplitz matrix convolving a K*O_s block with the subband-i filter.

    Output length K*O_s + L - 1; column c carries the modulated taps in rows
    c .. c+L-1.
    """
    if not 0 <= i * d < k:
        raise IndexError(f"subband index {i} out of range")
    taps = modulated_filter_taps(filt, i, k, o_s, d)
    n_in = k * o_s
    mat = np.zeros((n_in + filt.size - 1, n_in), dtype=complex)
    for ell in range(filt.size):
        mat[np.arange(n_in) + ell, np.arange(n_in)] = taps[ell]
    return mat


def cp_insert_matrix(n_cp: int, block: int) -> np.ndarray:
    """(block + N_CP) x block matrix prepending the last N_CP samples of a block."""
    if n_cp > block:
        raise ValueError(f"dimension mismatch: N_CP={n_cp} longer than block={block}")
    eye = np.eye(block)
    return np.vstack((eye[block - n_cp:, :], eye))


def cp_removal_matrix(n_cp: int, k_o_s: int, l_ch: int) -> np.ndarray:
    """K*O_s x (N_CP + K*O_s + L_ch - 1) matrix dropping the CP and the channel tail."""
    out = np.zeros((k_o_s, n_cp + k_o_s + l_ch - 1))
    out[:, n_cp:n_cp + k_o_s] = np.eye(k_o_s)
    return out


def tail_removal_matrix(k_o_s: int, l_ch: int) -> np.ndarray:
    """K*O_s x (K*O_s + L_ch - 1) matrix dropping the last L_ch - 1 received samples."""
    out = np.zeros((k_o_s, k_o_s + l_ch - 1))
    out[:, :k_o_s] = np.eye(k_o_s)
    return out


def tail_truncation_matrix(n_keep: int, l: int) -> np.ndarray:
    """n_keep x (n_keep + L - 1) matrix dropping the final L - 1 serialized samples."""
    out = np.zeros((n_keep, n_keep + l - 1))
    out[:, :n_keep] = np.eye(n_keep)
    return out


def ufmc_stacked_precoder(cfg) -> np.ndarray:
    """(K*O_s*N) x (K*N) matrix sending vec(X_FT) to the serialized DR-UFMC signal.

    Built literally: per-symbol precoder blocks placed on a K*O_s row
    stride (tails land in the next block's rows), final L - 1 rows dropped.
    """
    ko = cfg.k * cfg.o_s
    total = ko * cfg.n
    stacked = np.zeros((total + cfg.filter_len - 1, cfg.k * cfg.n), dtype=complex)
    p = ufmc_precoder(cfg)
    for i in range(cfg.n):
        stacked[i * ko:i * ko + ko + cfg.filter_len - 1, i * cfg.k:(i + 1) * cfg.k] += p
    return tail_truncation_matrix(total, cfg.filter_len) @ stacked


def dd_to_ft_kron(cfg) -> np.ndarray:
    """KN x KN Kronecker factor with vec(F_K X F_N^H) = (F_N^* kron F_K) vec(X)."""
    return np.kron(dft_matrix(cfg.n).conj(), dft_matrix(cfg.k))


def seeded_frames(frame_fn, trials: int, seed) -> np.ndarray:
    """``trials`` frames ``frame_fn(rng)``, drawn in order from ``default_rng(seed)``, concatenated."""
    rng = np.random.default_rng(seed)
    return np.concatenate([np.asarray(frame_fn(rng)) for _ in range(trials)])


def record_psd_estimates(monkeypatch) -> list:
    """Patch ``harness`` so that every PSD estimate it makes is appended, as
    ((waveform, n_guard), estimate), to the list returned."""
    make_signal, estimate = harness.psd_signal, harness.psd_estimate
    estimates = []

    class Tagged:
        """The chunks of one signal(n_guard) call, tagged (waveform, n_guard)."""

        def __init__(self, tag, chunks):
            self.tag, self.chunks = tag, chunks

        def __iter__(self):
            return iter(self.chunks)

    def tagged(cfg, waveform, frames):
        signal = make_signal(cfg, waveform, frames)
        return lambda n_guard: Tagged((waveform, n_guard), signal(n_guard))

    def recorded(x, *args):
        est = estimate(x, *args)
        estimates.append((x.tag, est))
        return est

    monkeypatch.setattr(harness, "psd_signal", tagged)
    monkeypatch.setattr(harness, "psd_estimate", recorded)
    return estimates


def linear_guard_scan(frame_fn_for_guard, cfg, delta_oob_db, trials, seed) -> int:
    """First guard count, scanning 0, 1, ..., K/2 - 1, whose PSD meets the threshold."""
    for n_guard in range(cfg.k // 2):
        est = psd_estimate(seeded_frames(frame_fn_for_guard(n_guard), trials, seed), cfg)
        if oob_level_db(est, cfg.bandwidth_hz) <= delta_oob_db:
            return n_guard
    raise GuardSearchError(
        f"not achievable: out-of-band level above {delta_oob_db} dB at every guard count"
    )


def frame_generator(cfg, waveform: str, n_guard: int):
    """Seedable per-frame transmitter of a PSD family with 2*n_guard edge subcarriers nulled."""
    modem = cfg.modem
    with_cp = harness.WAVEFORMS[waveform][0]

    def fn(rng):
        x_ft = isfft(qpsk_grid(rng, modem.k, modem.n))
        x_ft[:n_guard, :] = 0.0
        x_ft[modem.k - n_guard:, :] = 0.0
        return ofdm.ofdm_modulate(x_ft, modem) if with_cp else drufmc.ufmc_modulate_ft(x_ft, modem)

    return fn


def per_frame_signal(cfg, waveform: str, n_guard: int) -> np.ndarray:
    """The ``psd_trials`` frames of :func:`frame_generator`, drawn one by one and concatenated."""
    return seeded_frames(frame_generator(cfg, waveform, n_guard), cfg.psd_trials, cfg.seed)


def per_cell_row(cfg, waveform: str, speed_kmh: float, snr_index: int, trial: int):
    """One sweep cell on its own channel, as every cell ran before grid points shared one.

    The cell's :class:`~ddmod.ofdm.LinkChannel` is realized from the
    waveform's modem, with its guard override if any, and is read by this
    link alone; the link and the score use that modem too.
    """
    modem = cfg.modem_for(waveform)
    snr_db = cfg.snr_db[snr_index]
    sigma2 = 1.0 / 10.0 ** (snr_db / 10.0)
    with_cp, link = harness.WAVEFORMS[waveform]
    channel = ofdm.LinkChannel(harness._trial_paths(cfg, speed_kmh, snr_index, trial), modem)
    sym_rng, noise_ss = harness._cell_streams(cfg, waveform, speed_kmh, snr_index, trial)
    x_dd = qpsk_grid(sym_rng, modem.k, modem.n)
    sinr, x_hat = link(x_dd, channel, modem, sigma2, noise_ss)
    efficiency = modem.cp_efficiency() if with_cp else 1.0
    return harness.ResultRow(
        waveform=waveform,
        speed_kmh=speed_kmh,
        snr_db=snr_db,
        trial=trial,
        net_sinr_db=net_sinr(sinr, modem.n_guard),
        avg_se_bps_hz=avg_spectral_efficiency(sinr, efficiency, modem.n_guard),
        nmse=normalized_mse(vec(x_hat), vec(x_dd)),
        runtime_s=0.0,
    )
