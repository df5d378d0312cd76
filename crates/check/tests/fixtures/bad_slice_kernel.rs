// Lint fixture (never compiled): a slice-kernel file whose `_block` kernel
// allocates, locks and prints, and whose geometry builder allocates (legal:
// geometry is built once, outside the walk). Line numbers matter — trip.rs
// asserts them.

fn binary_block(walk: &RowWalk<2>, a: &[f32], out: &mut [f32], state: &SharedState) {
    let _guard = state.mutex.lock();
    let offsets: Vec<usize> = walk.starts.iter().map(|s| s[0]).collect();
    println!("rows = {}", offsets.len());
    for (o, &off) in out.iter_mut().zip(&offsets) {
        *o = a[off];
    }
}

fn broadcast_walk(a: &[usize], out: &[usize]) -> RowWalk<2> {
    // Not a worker-loop fn: the geometry may allocate.
    let strides = vec![0usize; out.len()];
    RowWalk::new(out, [&strides, a])
}

#[cfg(test)]
mod tests {
    fn helper_block() {
        let _v = vec![1, 2, 3];
    }
}
