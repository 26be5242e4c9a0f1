"""High-precision residual-verification lab for Hankel determinants of
singularly deformed Laguerre weights."""


def _bind_bitcount():
    """Under mpmath's pure-Python backend, rebind ``bitcount`` from
    ``libintmath.python_bitcount`` (a bisect over 300 powers of two, then
    ``math.log`` on the wider mantissas of every add, divide and
    normalization here) to the C builtin ``int.bit_length``, in each
    loaded ``mpmath*`` module that binds it (eleven at mpmath 1.3.0).

    Bits cannot move: the two agree on every n >= 0, and mpmath passes
    ``abs(...)`` wherever a sign is possible, since under gmpy it binds
    ``bitcount`` to ``gmpy.bit_length``, which counts |n| the same way.
    ``BACKEND`` still reads "python".  On another backend, or an mpmath
    without ``python_bitcount``, nothing is rebound.  On a 2-vCPU host
    perfbench's ``verify_ref_s`` falls from 1.45 to 1.29 s on warm-all
    and from 0.41 to 0.36 s on cold-stencil.
    """
    import sys

    from mpmath.libmp import BACKEND, libintmath

    slow = getattr(libintmath, "python_bitcount", None)
    if BACKEND != "python" or slow is None:
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("mpmath") and getattr(module, "bitcount", None) is slow:
            module.bitcount = int.bit_length


_bind_bitcount()

from .params import PrecisionContext, WeightParams, to_fraction, to_mpf  # noqa: E402

__all__ = ["WeightParams", "PrecisionContext", "to_fraction", "to_mpf"]

__version__ = "0.1.0"
