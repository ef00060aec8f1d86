"""Fast time-domain signal interpolation via zero-padding and FFT/IFFT,
with the Dirichlet/sinc kernel theory and quadratic-time oracles needed to
verify it."""

from .analysis import (
    BENCH_COLUMNS,
    KERNEL_COLUMNS,
    ErrorReport,
    MethodStudy,
    bench_methods,
    compare_sequences,
    kernel_discrepancy,
    to_db,
    upsample_error_study,
)
from .interpolate import (
    METHODS,
    dirichlet_interp_spectrum,
    dirichlet_upsample_direct,
    fft_upsample,
    sinc_interp,
    spectrum_upsample,
    upsample,
)
from .kernels import dirichlet, psinc, sinc
from .seqio import ParseError, read_sequence, write_sequence, write_table
from .signals import KINDS, SignalSpec, eval_ground_truth, generate, splitmix64, uniform_doubles
from .transforms import Sequence, dft, dft_naive, dtft_at, idft, idft_naive

__version__ = "0.1.0"
