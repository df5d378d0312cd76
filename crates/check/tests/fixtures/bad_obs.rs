// Lint fixture (never compiled): observability hooks inside per-block
// worker-loop functions. The no-span-in-worker rule must trip on the
// span/count_op calls in worker fns and nowhere else. Line numbers
// matter — trip.rs asserts them.
fn traced_row_block(out: &mut [f32]) {
    let _span = timekd_obs::span("kernel.block");
    timekd_obs::count_op("row_block");
    for v in out.iter_mut() {
        *v += 1.0;
    }
}

fn drain_queue_block(queue: &JobQueue) {
    let _span = obs::span("queue.drain");
    queue.run_claimed();
}

fn op_boundary(shared: &Shared, id: usize) {
    // The op boundary is not a `*_block`/`*_lanes` fn: spans and
    // counter hooks belong here and must not trip.
    let _span = timekd_obs::span("op.call");
    timekd_obs::count_op("op.call");
    timekd_obs::PLAN_COMPILES.add(1);
    let _ = (shared, id);
}

fn fast_path_block(out: &mut [f32]) {
    // Bare atomic counters are a single relaxed add: legal in workers.
    timekd_obs::LM_CACHE_HITS.add(out.len() as u64);
}

#[cfg(test)]
mod tests {
    fn helper_block() {
        // Inside a test module the same hooks are exempt.
        let _span = timekd_obs::span("exempt");
        timekd_obs::count_op("exempt");
    }
}
