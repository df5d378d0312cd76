// Lint fixture (never compiled): kernel code calling libm transcendentals
// instead of the pinned `simd::exp` / `simd::tanh`. Line numbers matter —
// trip.rs asserts them.

fn softmax_row_block(row: &mut [f32], mx: f32) {
    for x in row.iter_mut() {
        *x = (*x - mx).exp();
    }
}

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * x).tanh())
}

fn softplus(x: f32) -> f32 {
    x.exp_m1().ln_1p()
}

fn pinned(x: f32) -> f32 {
    // A comment naming x.exp() and a "x.tanh()" string do not trip, and
    // neither do the pinned kernels.
    simd::exp(x) + simd::tanh(x) + x.ln()
}

#[cfg(test)]
mod tests {
    fn reference(x: f64) -> f64 {
        // References against f64 libm are exempt inside tests.
        x.exp() + x.tanh() + x.exp_m1()
    }
}
