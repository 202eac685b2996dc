"""
Carving heralded single-photon pulses
=====================================

Once the Stokes detection heralds a photon, a modulator can shape its
partner.  The front of the wavepacket carries the coupling beat; past
the point where the per-cycle modulation depth collapses, the tail is
smooth and square windows carve clean pulses.  Far off resonance the
beat itself is deep enough that the unmasked wavepacket is already a
pulse train.
"""

import numpy as np

from biphoton import (
    ModulationMask,
    SystemParams,
    TimeGridConfig,
    apply_mask,
    beat_period,
    g2_analytic,
    mask_values,
    suggest_mask_start,
    write_csv,
)

p = SystemParams(delta_c=28.3, omega_c=14.8)
grid = TimeGridConfig(tau_max=1500.0, n_points=6000)
w = g2_analytic(p, grid=grid)

# open the shaping window only after the beat has died down
start = suggest_mask_start(w)
print(f"beat period {beat_period(p):.2f} ns, smooth tail from {start:.0f} ns")

mask = ModulationMask(pulse_width=60.0, pulse_separation=90.0, n_pulses=2,
                      start_offset=start)
hard = apply_mask(w, mask)
soft = apply_mask(w, mask, rise_time=8.0)

inside = mask_values(mask, w.taus) == 1.0
leak = soft.g2[~inside].sum() / soft.g2.sum()
print(f"carved energy fraction {hard.g2.sum() / w.g2.sum():.3f}, "
      f"smoothed out-of-window leakage {leak:.3f}")

write_csv("carved_pulses.csv",
          {"tau_ns": w.taus, "unmasked": w.g2, "hard": hard.g2,
           "soft": soft.g2})

# far detuned, nature does the carving: deep beat minima between pulses
far = SystemParams(delta_c=-100.0, omega_c=30.0)
train = g2_analytic(far, grid=TimeGridConfig(40.0, 4000))
period = beat_period(far)
g2 = np.asarray(train.g2)
k = int(np.argmax(g2))
step = int(round(period / train.tau_step))
dark = g2[k + step // 2 - 2: k + step // 2 + 3].min()
print(f"\nfar-detuned train: period {period:.2f} ns, "
      f"first dark/bright ratio {dark / g2[k]:.3f}")
write_csv("pulse_train.csv", {"tau_ns": train.taus, "value": train.g2})
print("wrote carved_pulses.csv, pulse_train.csv")
