"""Unit helpers and constants.

All simulator-internal quantities use SI base units: seconds, bytes,
bytes/second, FLOPs, FLOP/s.  These helpers exist so that configuration
code reads like the hardware datasheets it is transcribed from
(``400 * Gbps``, ``80 * GiB``, ``312 * TFLOPS``).
"""

from __future__ import annotations

# -- sizes (bytes) ------------------------------------------------------
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12
KiB = 1024.0
MiB = 1024.0**2
GiB = 1024.0**3
TiB = 1024.0**4

# -- rates --------------------------------------------------------------
# Network rates are quoted in bits/second on datasheets; we store bytes/s.
Kbps = 1e3 / 8
Mbps = 1e6 / 8
Gbps = 1e9 / 8
Tbps = 1e12 / 8

# -- compute ------------------------------------------------------------
GFLOPS = 1e9
TFLOPS = 1e12
PFLOPS = 1e15

# -- time ---------------------------------------------------------------
NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
