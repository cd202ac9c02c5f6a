"""Natural unit convention shared by the whole package.

Everything internal is carried in electron-volt units with hbar = c = 1:
energies in eV, momenta in eV/c, times in hbar/eV, lengths in hbar*c/eV.
All the laser/electron parameters of interest are quoted in eV, fs and um,
so SI appears only at the I/O boundary.
"""

import math

# SI constants that are exact by definition (2019 SI).  hbar is formed from h
# as scipy.constants forms it, so the units below equal the ones built from
# scipy.constants bit for bit, without importing scipy.
HBAR_SI = 6.62607015e-34 / (2 * math.pi)    # J s
E_SI = 1.602176634e-19                      # C
C_SI = 299792458.0                          # m/s

# Measured constants of the design calculator: the CODATA 2022 values, as
# scipy.constants 1.17 returns them.
M_E_SI = 9.1093837139e-31                   # kg
EPSILON_0_SI = 8.8541878188e-12             # F/m

# Electron rest energy used throughout the dynamical formulas [eV].
MC2_EV = 5.110e5

# One natural time unit (hbar / 1 eV) expressed in femtoseconds: 0.6582... fs
TIME_UNIT_FS = HBAR_SI / E_SI * 1e15

# One natural length unit (hbar c / 1 eV) in nanometres: 197.33 nm
LENGTH_UNIT_NM = HBAR_SI * C_SI / E_SI * 1e9
LENGTH_UNIT_UM = LENGTH_UNIT_NM * 1e-3

# Speed of light in lab units, handy for the design calculator.
C_NM_PER_FS = C_SI * 1e-6


def fs_to_natural(t_fs: float) -> float:
    return t_fs / TIME_UNIT_FS


def natural_to_fs(t: float) -> float:
    return t * TIME_UNIT_FS


def attoseconds_to_natural(t_as: float) -> float:
    return t_as * 1e-3 / TIME_UNIT_FS


def nm_to_natural(x_nm: float) -> float:
    return x_nm / LENGTH_UNIT_NM


def natural_to_nm(x: float) -> float:
    return x * LENGTH_UNIT_NM


def um_to_natural(x_um: float) -> float:
    return x_um / LENGTH_UNIT_UM


def natural_to_um(x: float) -> float:
    return x * LENGTH_UNIT_UM
