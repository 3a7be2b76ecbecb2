"""Algebra documents that several test modules load inline."""

# the GF(7) quantum 3-space of the gb-gfp and points benchmarks; its center
# is not the polynomial ring on x^6, y^6, z^6, since x*y*z^4 is central
GF7SPACE = (
    "field: gf:7\nvars: x, y, z\n"
    "relation: y*x = 2*x*y\nrelation: z*x = 3*x*z\nrelation: z*y = 5*y*z\n"
)

# documents the engine, evaluation and fuzzing tests run on, by name
INLINE = {
    "gf7space": GF7SPACE,
    "zeta5plane": "field: cyclotomic:5\nvars: x, y\nrelation: y*x = z*x*y\n",
    # x conjugates the scalars it passes: right multiples by i are needed
    "conjplane": "field: Q(i)\nvars: x, y\nsigma: x = conj\nrelation: y*x = i*x*y\n",
    # Skew PBW extensions whose linear terms call each other, written by hand
    # from the relations that Gallego & Lezama (Comm. Algebra 2011) and
    # Lezama & Reyes (Comm. Algebra 2014) list, with the parameters fixed:
    # the dispin algebra U(osp(1,2)), the Woronowicz algebra W_nu(sl(2)) at
    # nu = 2, the q-Heisenberg algebra at q = 2, and a Lie algebra.
    "dispin": (
        "field: Q\nvars: x, y, z\n"
        "relation: y*x = x*y - x\nrelation: z*x = -x*z + y\nrelation: z*y = y*z - z\n"
    ),
    "woronowicz": (
        "field: Q\nvars: x, y, z\n"
        "relation: y*x = (1/4)*x*y - (1/2)*z\n"
        "relation: z*x = (1/16)*x*z - (5/16)*x\n"
        "relation: z*y = 16*y*z + 5*y\n"
    ),
    "q_heisenberg": (
        "field: Q\nvars: x, y, z\n"
        "relation: y*x = 2*x*y - 2*z\nrelation: z*x = (1/2)*x*z\nrelation: z*y = 2*y*z\n"
    ),
    "lie_gf32003": (
        "field: gf:32003\nvars: x, y, z\n"
        "relation: y*x = x*y + z\nrelation: z*x = x*z + y\n"
    ),
}
