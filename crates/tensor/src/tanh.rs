//! The one hyperbolic tangent of the workspace.
//!
//! Every KUCNet layer ends with the activation δ = tanh over each
//! aggregated row (Eq. 5), and the KGAT, RGCN, KGIN and KGNN-LS baselines
//! apply it the same way, so tanh runs once per node per dimension per
//! layer. The host C library's `tanhf` costs ~20 ns a call, does not
//! vectorise, is not required to be correctly rounded, and differs between
//! libcs and their versions. [`tanh`] replaces it everywhere: a branch-free
//! odd rational in `f32` that LLVM vectorises at the baseline x86-64
//! target, so the taped forward, the tape-free forward and every served
//! path share one bit pattern per input on every host.
//!
//! The approximation is Eigen's `generic_fast_tanh_float`: a degree-13/6
//! odd/even rational on `[-c, c]`, `c = 7.905311`, where it reaches ±1.
//! An exhaustive sweep of all 2^32 inputs (the `#[ignore]`d test below)
//! puts its largest error against `(x as f64).tanh()` at 6.88 ulp, near
//! x = 5.83; the contract is 8.

/// Inputs are clamped to `[-CLAMP, CLAMP]`; the rational evaluates to
/// exactly ±1 there.
const CLAMP: f32 = 7.905_311;

/// Below this magnitude `tanh(x)` rounds to `x` (subnormals included), so
/// the argument is returned unchanged.
const TINY: f32 = 4e-4;

/// Numerator coefficients in powers of `x²`, highest first (the numerator
/// is `x · P(x²)`).
const P: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_35e-5,
    6.372_619_5e-4,
    4.893_524_6e-3,
];

/// Denominator coefficients in powers of `x²`, highest first.
const Q: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// Hyperbolic tangent of `x`, within 8 ulp of the exact value on every
/// finite `f32`.
///
/// Exactly odd (`tanh(-x)` is bitwise `-tanh(x)`), `|tanh(x)| ≤ 1`,
/// ±0 → ±0, subnormal `x` → `x`, ±∞ → ±1 and NaN → NaN. Branch-free: the
/// clamp and the small-argument return are selects, so a loop over a slice
/// vectorises. Multiply and add stay separate roundings (Rust never
/// contracts them into fused multiply-adds), so scalar and vector code give
/// the same bits.
#[inline]
pub fn tanh(x: f32) -> f32 {
    // `clamp`, not `min`/`max`: it passes NaN through to the division,
    // where `min`/`max` would return the bound.
    let c = x.clamp(-CLAMP, CLAMP);
    let x2 = c * c;
    let mut p = P[0];
    for &a in &P[1..] {
        p = p * x2 + a;
    }
    let mut q = Q[0];
    for &b in &Q[1..] {
        q = q * x2 + b;
    }
    let y = c * p / q;
    if x.abs() < TINY {
        x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::tanh;

    /// The contract's error bound in ulp.
    const MAX_ULP: f64 = 8.0;

    /// `|y − r|` in units of the `f32` spacing at the exact value `r`.
    fn ulp_error(y: f32, r: f64) -> f64 {
        let biased = (r.abs().to_bits() >> 52) & 0x7ff;
        // f32 spacing is 2^(e − 23) in binade e, and 2^-149 below 2^-126.
        let e = (i32::try_from(biased).expect("11-bit exponent") - 1023).max(-126);
        (f64::from(y) - r).abs() / 2f64.powi(e - 23)
    }

    /// Checks the whole contract at one bit pattern; returns its ulp error
    /// (0 for non-finite inputs).
    fn check(bits: u32) -> f64 {
        let x = f32::from_bits(bits);
        let y = tanh(x);
        if x.is_nan() {
            assert!(y.is_nan(), "tanh(NaN {bits:#010x}) = {y}");
            return 0.0;
        }
        assert!(y.abs() <= 1.0, "|tanh({x:e})| = {y:e} > 1");
        assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "tanh is not odd at {x:e}");
        if x.is_infinite() {
            assert_eq!(y, x.signum(), "tanh({x}) = {y}");
            return 0.0;
        }
        if x == 0.0 || x.is_subnormal() {
            assert_eq!(y.to_bits(), bits, "tanh({x:e}) must return x");
        }
        ulp_error(y, f64::from(x).tanh())
    }

    /// Worst `(ulp, bits)` over `bits`, checking the contract at each.
    fn sweep(bits: impl Iterator<Item = u32>) -> (f64, u32) {
        bits.map(|b| (check(b), b)).fold((0.0, 0), |w, c| if c.0 > w.0 { c } else { w })
    }

    #[test]
    fn special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        let sub = f32::MIN_POSITIVE / 3.0;
        assert_eq!(tanh(sub).to_bits(), sub.to_bits());
        assert_eq!(tanh(f32::MAX), 1.0);
        assert_eq!(tanh(f32::MIN), -1.0);
    }

    #[test]
    fn strided_sample_meets_the_contract() {
        // An odd stride crosses every exponent of both signs and spreads
        // over the mantissas: 2^32 / 4093 ≈ 1.05M patterns.
        let (ulp, bits) = sweep((0..=u32::MAX).step_by(4093));
        assert!(ulp <= MAX_ULP, "{ulp} ulp at x = {:e}", f32::from_bits(bits));
    }

    #[test]
    fn every_pattern_near_the_worst_case_and_the_clamp() {
        // The largest errors sit where the rational bends toward ±1.
        for (lo, hi) in [(5.5f32, 6.5f32), (7.8, 8.1), (3e-4, 5e-4)] {
            let (ulp, bits) = sweep(lo.to_bits()..=hi.to_bits());
            assert!(ulp <= MAX_ULP, "{ulp} ulp at x = {:e}", f32::from_bits(bits));
        }
    }

    /// All 2^32 bit patterns on two threads (under two minutes in release):
    /// `cargo test --release -p kucnet-tensor --lib -- --ignored exhaustive
    /// --nocapture`.
    #[test]
    #[ignore = "exhaustive sweep; run in release on demand"]
    fn exhaustive_sweep_meets_the_contract() {
        let (ulp, bits) = std::thread::scope(|s| {
            let halves =
                [0u32, 0x8000_0000].map(|sign| s.spawn(move || sweep(sign..=sign | 0x7fff_ffff)));
            halves
                .map(|h| h.join().expect("sweep thread panicked"))
                .into_iter()
                .fold((0.0, 0), |w, c| if c.0 > w.0 { c } else { w })
        });
        println!("max error {ulp:.3} ulp at x = {:e} ({bits:#010x})", f32::from_bits(bits));
        assert!(ulp <= MAX_ULP);
    }
}
