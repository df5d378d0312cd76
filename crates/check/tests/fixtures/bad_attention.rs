// Lint fixture (never compiled): a fused-attention kernel file violating
// every kernel rule (no-unwrap, no-Instant) and every worker-loop rule
// (no-lock, no-alloc, no-println). Line numbers matter — trip.rs asserts them.

fn attn_fwd_row_block(out: &mut [f32], q: &[f32], state: &SharedState) {
    let _guard = state.mutex.lock();
    let scratch = vec![0.0f32; 8];
    println!("rows = {}", out.len());
    let first = q.first().unwrap();
    let t0 = std::time::Instant::now();
    for v in out.iter_mut() {
        *v += scratch[0] + *first + t0.elapsed().as_secs_f32();
    }
}

fn plan_attention(rows: usize) -> Vec<(usize, usize)> {
    // Not a worker-loop fn (name matches neither `*_block` nor
    // `*_lanes`): allocation and printing are fine here, but the
    // file-wide kernel rules still catch the expect below.
    let ranges = vec![(0, rows)];
    println!("blocks: {}", ranges.len());
    let _first = ranges.first().copied().expect("non-empty");
    ranges
}

#[cfg(test)]
mod tests {
    fn helper_block() {
        // Inside a test module the same patterns are exempt.
        let _v = vec![1, 2, 3];
        let _ = x.unwrap();
        println!("exempt");
    }
}
