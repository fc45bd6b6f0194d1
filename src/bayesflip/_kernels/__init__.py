"""Hot numerical kernels, in pure Python (``pure``).

The numerics layer calls them directly; they assume validated inputs.
"""
