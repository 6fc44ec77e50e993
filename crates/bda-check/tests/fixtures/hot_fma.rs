//! Intentional `hot_fma` violations and non-violations. The
//! `bda-check: hot` marker stands in for the anchor table; `helper` is
//! reached by one-level call-graph propagation from `hot_kernel`.

// bda-check: hot
pub fn hot_kernel(xs: &mut [f64], a: f64) -> f64 {
    for x in xs.iter_mut() {
        *x = a.mul_add(*x, 1.0);
    }
    helper(xs, a)
}

pub fn helper(xs: &[f64], a: f64) -> f64 {
    xs.iter().fold(0.0, |acc, &x| x.mul_add(a, acc))
}

pub fn cold_stats(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| x.mul_add(x, acc))
}

// bda-check: hot
pub fn hot_unfused(xs: &mut [f64], a: f64) {
    for x in xs.iter_mut() {
        *x = *x + a * *x;
    }
}

// bda-check: hot
pub fn hot_justified(x: f64, y: f64, z: f64) -> f64 {
    // bda-check: allow(hot_fma) -- one scalar per call, exactness wanted
    x.mul_add(y, z)
}
