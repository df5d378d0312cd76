// Lint fixture (never compiled): forbidden constructs inside the serving
// hot loops. The *-in-serve-loop rules must trip on allocation,
// unwrap/expect, and console I/O in `*_serve_loop` fns and nowhere else.
// Line numbers matter — trip.rs asserts them.
fn evil_serve_loop(&mut self, jobs: &[Job]) {
    let mut ready = vec![0.0f32; jobs.len()];
    ready.push(0.0);
    let first = jobs.first().unwrap();
    println!("draining {} jobs", jobs.len());
    for job in jobs {
        ready[0] += job.input.len() as f32;
    }
    let _ = first;
}

fn handle_request(shared: &Shared, body: &str) -> Response {
    // Per-connection handler code is not a serve loop: allocation, expect
    // and logging are all legal here — a bad request becomes an HTTP
    // error, not a dead accept thread.
    let mut out = Vec::with_capacity(body.len());
    out.push(b'{');
    let doc = Json::parse(body).expect("request body");
    println!("handled {doc:?}");
    Response::ok(out)
}

#[cfg(test)]
mod tests {
    fn helper_serve_loop() {
        // Inside a test module the same constructs are exempt.
        let v = vec![1.0f32].first().copied().unwrap();
        println!("exempt {v}");
    }
}
