"""Algebra documents that several test modules load inline."""

# the GF(7) quantum 3-space of the gb-gfp and points benchmarks; its center
# is not the polynomial ring on x^6, y^6, z^6, since x*y*z^4 is central
GF7SPACE = (
    "field: gf:7\nvars: x, y, z\n"
    "relation: y*x = 2*x*y\nrelation: z*x = 3*x*z\nrelation: z*y = 5*y*z\n"
)
