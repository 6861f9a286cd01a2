"""Global optimization with Gaussian surrogates, 1-D DIRECT, and an
affine-scaling comparison harness with extended-numeral support."""

__version__ = "0.1.0"
