//! Seeded violation for `no-libm-tanh`: exactly one finding. Not part of
//! the workspace walk; linted only via `--lint-dir` and the audit crate's
//! own tests.

/// Applies the host C library's tanh in place.
pub fn trips_libm_tanh(xs: &mut [f32]) {
    for x in xs {
        *x = x.tanh();
    }
}
