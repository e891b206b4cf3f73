//! Exact integer helper arithmetic.
//!
//! All polyhedral computations in this crate use `i128` coefficients with
//! checked arithmetic. Fourier–Motzkin elimination multiplies constraint
//! rows together, so coefficients can grow quickly; every combination step
//! normalizes by the gcd of the row, which keeps magnitudes small for the
//! systems that arise from affine loop nests.
//!
//! The one exception is the compiled scan kernel
//! ([`ScanKernel`](crate::ScanKernel)), which enumerates points in plain
//! `i64`: [`ScanNest::compile`](crate::ScanNest::compile) builds its bounds
//! with these helpers, proves by interval arithmetic that nothing the
//! kernel computes leaves ±2^62, and refuses with
//! [`PolyError::Overflow`] otherwise. No `i64` copy of these helpers
//! exists; the kernel's floor and ceiling divisions are `i64::div_euclid`.

use crate::PolyError;

/// Greatest common divisor of two integers; `gcd(0, 0) == 0`.
///
/// The result is always non-negative.
///
/// # Examples
///
/// ```
/// assert_eq!(dmc_polyhedra::num::gcd(12, -8), 4);
/// assert_eq!(dmc_polyhedra::num::gcd(0, 5), 5);
/// ```
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple; `lcm(0, x) == 0`.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] if the product overflows `i128`.
pub fn lcm(a: i128, b: i128) -> Result<i128, PolyError> {
    if a == 0 || b == 0 {
        return Ok(0);
    }
    let g = gcd(a, b);
    (a / g)
        .checked_mul(b)
        .map(i128::abs)
        .ok_or(PolyError::Overflow)
}

/// Floor division: the largest integer `q` with `q * b <= a`. Requires `b > 0`.
///
/// # Panics
///
/// Panics if `b <= 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(dmc_polyhedra::num::div_floor(7, 2), 3);
/// assert_eq!(dmc_polyhedra::num::div_floor(-7, 2), -4);
/// ```
pub fn div_floor(a: i128, b: i128) -> i128 {
    assert!(b > 0, "div_floor requires a positive divisor");
    if b == 1 {
        return a;
    }
    let q = a / b;
    if a - q * b < 0 {
        q - 1
    } else {
        q
    }
}

/// Ceiling division: the smallest integer `q` with `q * b >= a`. Requires `b > 0`.
///
/// # Panics
///
/// Panics if `b <= 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(dmc_polyhedra::num::div_ceil(7, 2), 4);
/// assert_eq!(dmc_polyhedra::num::div_ceil(-7, 2), -3);
/// ```
pub fn div_ceil(a: i128, b: i128) -> i128 {
    assert!(b > 0, "div_ceil requires a positive divisor");
    if b == 1 {
        return a;
    }
    let q = a / b;
    if a - q * b > 0 {
        q + 1
    } else {
        q
    }
}

/// Mathematical modulus with a non-negative result. Requires `b > 0`.
///
/// # Panics
///
/// Panics if `b <= 0`.
pub fn mod_floor(a: i128, b: i128) -> i128 {
    assert!(b > 0, "mod_floor requires a positive divisor");
    let r = a % b;
    if r < 0 {
        r + b
    } else {
        r
    }
}

/// The inverse of `a` modulo `m` in `[0, m)`: `a * mod_inverse(a, m) ≡ 1
/// (mod m)`. Requires `m > 0` and `gcd(a, m) == 1`.
///
/// # Panics
///
/// Panics if `m <= 0` or `a` and `m` are not coprime.
///
/// # Examples
///
/// ```
/// assert_eq!(dmc_polyhedra::num::mod_inverse(3, 7), 5);
/// assert_eq!(dmc_polyhedra::num::mod_inverse(-1, 4), 3);
/// ```
pub fn mod_inverse(a: i128, m: i128) -> i128 {
    // Extended Euclid on (a mod m, m), tracking only a's cofactor; every
    // intermediate is bounded by m in magnitude.
    let (mut r0, mut r1) = (mod_floor(a, m), m);
    let (mut s0, mut s1) = (1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (s0, s1) = (s1, s0 - q * s1);
    }
    assert_eq!(r0, 1, "mod_inverse requires coprime arguments");
    mod_floor(s0, m)
}

/// Checked addition lifted to [`PolyError`].
pub fn add(a: i128, b: i128) -> Result<i128, PolyError> {
    a.checked_add(b).ok_or(PolyError::Overflow)
}

/// Checked multiplication lifted to [`PolyError`].
pub fn mul(a: i128, b: i128) -> Result<i128, PolyError> {
    a.checked_mul(b).ok_or(PolyError::Overflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 999), 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6).unwrap(), 12);
        assert_eq!(lcm(0, 5).unwrap(), 0);
        assert_eq!(lcm(-4, 6).unwrap(), 12);
    }

    #[test]
    fn lcm_overflow() {
        assert!(lcm(i128::MAX, i128::MAX - 1).is_err());
    }

    #[test]
    fn floor_ceil_div() {
        assert_eq!(div_floor(9, 3), 3);
        assert_eq!(div_floor(10, 3), 3);
        assert_eq!(div_floor(-10, 3), -4);
        assert_eq!(div_ceil(9, 3), 3);
        assert_eq!(div_ceil(10, 3), 4);
        assert_eq!(div_ceil(-10, 3), -3);
    }

    #[test]
    #[should_panic]
    fn div_floor_rejects_nonpositive() {
        div_floor(1, 0);
    }

    #[test]
    fn mod_floor_nonnegative() {
        assert_eq!(mod_floor(7, 3), 1);
        assert_eq!(mod_floor(-7, 3), 2);
        assert_eq!(mod_floor(6, 3), 0);
        assert_eq!(mod_floor(-6, 3), 0);
    }

    #[test]
    fn floor_div_inverse_property() {
        for a in -50..50i128 {
            for b in 1..8i128 {
                let q = div_floor(a, b);
                assert!(q * b <= a && (q + 1) * b > a, "a={a} b={b}");
                let c = div_ceil(a, b);
                assert!(c * b >= a && (c - 1) * b < a, "a={a} b={b}");
            }
        }
    }
}
