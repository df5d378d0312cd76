// Lint fixture (never compiled): per-block worker-loop functions that
// violate the no-lock-in-worker, no-alloc-in-worker and
// no-println-in-worker rules. Line numbers matter — trip.rs asserts them.

fn evil_row_block(out: &mut [f32], state: &SharedState) {
    let _guard = state.mutex.lock();
    let scratch = vec![0.0f32; 8];
    println!("rows = {}", out.len());
    for v in out.iter_mut() {
        *v += scratch[0];
    }
}

fn drain_queue_block(queue: &JobQueue) {
    let _job = queue.cv.wait(queue.guard());
}

fn setup_ranges(rows: usize) -> Vec<(usize, usize)> {
    // Not a worker-loop fn (name matches neither `*_block` nor
    // `*_lanes`): allocation and printing are allowed here.
    let ranges = vec![(0, rows)];
    println!("blocks: {}", ranges.len());
    ranges
}

#[cfg(test)]
mod tests {
    fn helper_block() {
        // Inside a test module the same patterns are exempt.
        let _v = vec![1, 2, 3];
        println!("exempt");
    }
}
