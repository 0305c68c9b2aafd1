"""Certificates over GF(2) and on ideal quotients.

Two families where the coefficient bookkeeping is harder than in the
torus case.  For spheres the model lives over GF(2) and the product is
the cube of the SO(3) bar class times the bars of each point's two loops
around the punctures of the plane factor.  The mod-ideal model is the
genus-2 diagonal model of n points on the closed surface modulo the
ideal <x1 y1, x_i y1 + x1 y_i>; a nonzero witness is only valid if it
stays nonzero against every membership probe of that ideal.
"""

from tcsurf import case_certificate, mod_ideal_quotient, sphere_mod2_model


def main():
    print("F(S^2, n) mod 2, certified length 2n - 3:")
    for n in range(3, 7):
        cert = case_certificate("sphere", sphere_mod2_model(n))
        data = cert.to_json()
        print(f"  n = {n}: length {cert.certified_length}, "
              f"witness {data['witness'][0]} (x) {data['witness'][1]}")

    print()
    print("Genus-2 diagonal model mod ideal (mod-ideal), "
          "certified length 2n:")
    for n in range(1, 5):
        cert = case_certificate("punctured-mod-ideal", mod_ideal_quotient(n))
        data = cert.to_json()
        print(f"  n = {n}: length {cert.certified_length}, "
              f"coefficient {data['coefficient']}, "
              f"witness {data['witness'][0]} (x) {data['witness'][1]}")


if __name__ == "__main__":
    main()
