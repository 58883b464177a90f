"""Walk through the matrix builders behind every transceiver chain.

Shows the unitary DFT factors, the oversampled subcarrier matrix whose rows
stay orthonormal (the source of perfect reconstruction on ideal channels),
and the Dolph-Chebyshev prototype filter with its equiripple side-lobes.
"""

import numpy as np

from ddmod import chebyshev_window, dft_matrix, isfft, oversampled_dft, sfft

rng = np.random.default_rng(0)

print("== DFT factors ==")
f8 = dft_matrix(8)
print("F_8 unitarity error:", np.abs(f8 @ f8.conj().T - np.eye(8)).max())

w = oversampled_dft(8, 4)
print("oversampled W (8x32) row-orthonormality error:",
      np.abs(w @ w.conj().T - np.eye(8)).max())

x = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
print("sfft(isfft(X)) round-trip error:", np.abs(sfft(isfft(x)) - x).max())

print("\n== Dolph-Chebyshev prototype (L=60, 100 dB) ==")
filt = chebyshev_window(60, 100.0)
print("tap sum (unit DC gain):", filt.sum())
print("symmetry error:", np.abs(filt - filt[::-1]).max())

h = np.abs(np.fft.fft(filt, 8192))
h_db = 20 * np.log10(h / h.max() + 1e-300)
i = 1
while h_db[i] < h_db[i - 1]:
    i += 1
print(f"measured max side-lobe: {h_db[i:4096].max():.2f} dB (requested -100)")
print(f"main-lobe edge at {i / 8192:.4f} cycles/sample")
