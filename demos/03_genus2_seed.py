"""The length-4 seed product on a genus-2 surface, expanded by hand.

With H = H*(Sigma_2; Q) on generators a, b, c, d and top class
w = c*d, the product of the four bar classes

    (a(x)1 - 1(x)a)(b(x)1 - 1(x)b)(c(x)1 - 1(x)c)(d(x)1 - 1(x)d)

collapses to exactly 2 w (x) w.  The script verifies that identity
bit for bit, then extends the seed by interleaved pair classes to
certify zcl >= 2n + 2 for the n-point models B(n).
"""

from tcsurf import (QQ, case_certificate, genus2_B_algebra, quotient,
                    surface_cohomology, tensor_square)


def main():
    H = quotient(surface_cohomology(2))
    T = tensor_square(H)

    seed = T.bar(H.gen("a"))
    for s in ("b", "c", "d"):
        seed = T.multiply(seed, T.bar(H.gen(s)))
    w = H.gen("c") * H.gen("d")
    expected = T.tensor(w, w).scale(QQ.coerce(2))
    print("seed == 2 w (x) w:", seed == expected)
    print("seed terms:", seed)
    print()

    for n in range(1, 4):
        cert = case_certificate("genus2", genus2_B_algebra(n))
        data = cert.to_json()
        print(f"B({n}): certified length {cert.certified_length}, "
              f"coefficient {data['coefficient']}")
        print(f"  witness {data['witness'][0]} (x) {data['witness'][1]}")


if __name__ == "__main__":
    main()
