"""Ewald's split of the dyadic lattice sum at 34 digits: a reference that
shares no code with the kernel and splits at another eta.

It evaluates the split written out in ``latticesum.ewald``'s docstring with
mpmath at ``mp.dps = 34`` and eta = 2, where the kernel uses sqrt(pi), so a
wrong factor in either half shows as a dependence on eta. Real-space sites
l and reciprocal vectors q = k + 2 pi n are summed together over square
shells max(|x|, |y|) = s, and shells are added until one changes no entry
by 1e-30 or more. Every phase e^{i k.l} is summed whole and k is not
folded, so none of the kernel's symmetry reductions is assumed.
"""

from mpmath import erfc, exp, mp, mpc, mpf, sqrt

ETA = 2
TOL = mpf("1e-30")


def _ring(s):
    """Integer points with max(|x|, |y|) = s."""
    if s == 0:
        return [(0, 0)]
    side = range(-s, s + 1)
    return ([(x, y) for x in side for y in (-s, s)]
            + [(x, y) for x in (-s, s) for y in range(-s + 1, s)])


def _real_space(kx, ky, c, lx, ly):
    """Terms (xx, yy, zz, xy, xz, yz) of the site l = (lx, ly)."""
    s2 = lx * lx + ly * ly + c * c
    if s2 == 0:
        return [0] * 6
    s = sqrt(s2)
    g = 2 * ETA * s / sqrt(mp.pi) * exp(-ETA * ETA * s2)
    a = (erfc(ETA * s) + g) / s**3
    b = (3 * erfc(ETA * s) + g * (3 + 2 * ETA * ETA * s2)) / s**5
    phase = exp(mpc(0, kx * lx + ky * ly))
    return [phase * t for t in (a - b * lx * lx, a - b * ly * ly, a - b * c * c,
                                -b * lx * ly, -b * lx * c, -b * ly * c)]


def _reciprocal(kx, ky, c, nx, ny):
    """Terms (xx, yy, zz, xy, xz, yz) of q = k + 2 pi (nx, ny)."""
    qx, qy = kx + 2 * mp.pi * nx, ky + 2 * mp.pi * ny
    q = sqrt(qx * qx + qy * qy)
    w = exp(-q * q / (4 * ETA * ETA) - ETA * ETA * c * c)
    if q == 0:
        return [0, 0, 4 * sqrt(mp.pi) * ETA * w, 0, 0, 0]
    e_plus = exp(q * c) * erfc(q / (2 * ETA) + ETA * c)
    e_minus = exp(-q * c) * erfc(q / (2 * ETA) - ETA * c)
    psi = mp.pi / q * (e_plus + e_minus)
    psi_z = mp.pi * (e_plus - e_minus)
    psi_zz = mp.pi * q * (e_plus + e_minus) - 4 * sqrt(mp.pi) * ETA * w
    return [qx * qx * psi, qy * qy * psi, -psi_zz, qx * qy * psi,
            1j * qx * psi_z, 1j * qy * psi_z]


def ewald_components(kx, ky, c):
    """Entries (xx, yy, zz, xy, xz, yz) of D(k) to the plane at offset c,
    as Python complex numbers."""
    with mp.workdps(34):
        kx, ky, c = mpf(kx), mpf(ky), mpf(c)
        # an unfolded k puts the largest reciprocal terms in shell |k| / 2 pi
        first = 2 + int(max(abs(kx), abs(ky)) / (2 * mp.pi))
        total = [mpc(0)] * 6
        s = 0
        while True:
            shell = [mpc(0)] * 6
            for x, y in _ring(s):
                for term in (_real_space(kx, ky, c, x, y), _reciprocal(kx, ky, c, x, y)):
                    shell = [u + v for u, v in zip(shell, term)]
            total = [u + v for u, v in zip(total, shell)]
            if s > first and max(abs(v) for v in shell) < TOL:
                break
            s += 1
        if c == 0:
            # the site's own smooth part, which the reciprocal sum holds
            self_part = 4 * ETA**3 / (3 * sqrt(mp.pi))
            total = [v - self_part if i < 3 else v for i, v in enumerate(total)]
        return [complex(v) for v in total]
