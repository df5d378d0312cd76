//! Per-tenant sliding-window state: a Mutex-striped cache mapping tenant
//! ids to their most recent observation rows. `/observe` appends rows;
//! `/forecast` with a `tenant` field (and no explicit window) reads the
//! last `input_len` rows back. Rows are stored geometry-agnostic (each row
//! is one timestep across channels) and validated against the *current*
//! model's geometry at forecast time, so a hot-swap to a different
//! geometry degrades to a clear per-request error instead of serving
//! stale-shaped data.
//!
//! Each tenant keeps one width (channels per row) and one flat row-major
//! ring of values, so a row costs no allocation of its own. A row of a
//! different width restarts that tenant's history at the new width: a
//! window spanning two widths was never servable, so every window that
//! could be served before still is, bit for bit.

use std::collections::{HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::Mutex;

use crate::registry::fnv1a;

/// Rows kept per tenant regardless of model geometry; old rows roll off.
const MAX_ROWS: usize = 1024;

const SHARDS: usize = 16;

/// One tenant's newest rows, all `width` wide.
#[derive(Debug, Default)]
struct History {
    width: usize,
    /// Row count, kept apart from `values` so zero-width rows still count.
    rows: usize,
    /// `rows * width` values, oldest row first.
    values: VecDeque<f32>,
}

impl History {
    fn push(&mut self, row: &[f32]) {
        if row.len() != self.width {
            self.width = row.len();
            self.rows = 0;
            self.values.clear();
        }
        if self.rows == MAX_ROWS {
            self.values.drain(..self.width);
        } else {
            self.rows += 1;
        }
        self.values.extend(row);
    }

    /// Pushes every row and returns the row count after.
    fn append<'a>(&mut self, rows: impl Iterator<Item = &'a [f32]>) -> usize {
        for row in rows {
            self.push(row);
        }
        self.rows
    }
}

type Shard = Mutex<HashMap<String, History>>;

/// Sharded tenant → sliding-window map.
#[derive(Debug)]
pub struct TenantCache {
    shards: Vec<Shard>,
}

impl Default for TenantCache {
    fn default() -> Self {
        TenantCache::new()
    }
}

impl TenantCache {
    /// An empty cache with [`SHARDS`] mutex stripes.
    pub fn new() -> TenantCache {
        TenantCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, tenant: &str) -> &Shard {
        &self.shards[(fnv1a(tenant.as_bytes()) as usize) % SHARDS]
    }

    /// Appends observation rows for `tenant`, trimming to the newest
    /// [`MAX_ROWS`]. Returns the tenant's row count after the append.
    pub fn observe(&self, tenant: &str, rows: &[Vec<f32>]) -> usize {
        self.append(tenant, rows.iter().map(Vec::as_slice))
    }

    /// [`TenantCache::observe`] for rows packed row-major in one buffer,
    /// `width` values each (a trailing partial row is dropped).
    pub fn observe_rows(&self, tenant: &str, values: &[f32], width: NonZeroUsize) -> usize {
        self.append(tenant, values.chunks_exact(width.get()))
    }

    /// Pushes `rows` onto the tenant's history, allocating its key only
    /// the first time the tenant is seen.
    fn append<'a>(&self, tenant: &str, rows: impl Iterator<Item = &'a [f32]>) -> usize {
        let mut shard = self.shard(tenant).lock().unwrap_or_else(|p| p.into_inner());
        if let Some(history) = shard.get_mut(tenant) {
            return history.append(rows);
        }
        shard.entry(tenant.to_string()).or_default().append(rows)
    }

    /// The last `input_len` rows flattened row-major into
    /// `[input_len * num_vars]`, validated against the requested geometry.
    pub fn window(
        &self,
        tenant: &str,
        input_len: usize,
        num_vars: usize,
    ) -> Result<Vec<f32>, String> {
        let shard = self.shard(tenant).lock().unwrap_or_else(|p| p.into_inner());
        let history = shard
            .get(tenant)
            .ok_or_else(|| format!("unknown tenant `{tenant}`"))?;
        if history.rows > 0 && history.width != num_vars {
            return Err(format!(
                "tenant `{tenant}` row has {} channels, model needs {num_vars}",
                history.width
            ));
        }
        if history.rows < input_len {
            return Err(format!(
                "tenant `{tenant}` has {} rows, model needs {input_len}",
                history.rows
            ));
        }
        let skip = (history.rows - input_len) * num_vars;
        Ok(history.values.range(skip..).copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_then_window_roundtrips_latest_rows() {
        let cache = TenantCache::new();
        let rows: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, 10.0 + i as f32]).collect();
        assert_eq!(cache.observe("acme", &rows), 5);
        let w = cache.window("acme", 3, 2).expect("window");
        assert_eq!(w, vec![2.0, 12.0, 3.0, 13.0, 4.0, 14.0]);
    }

    #[test]
    fn geometry_and_history_faults_are_reported() {
        let cache = TenantCache::new();
        assert!(cache.window("ghost", 2, 2).unwrap_err().contains("unknown"));
        cache.observe("acme", &[vec![1.0, 2.0]]);
        assert!(cache
            .window("acme", 2, 2)
            .unwrap_err()
            .contains("1 rows, model needs 2"));
        cache.observe("acme", &[vec![3.0]]);
        let err = cache.window("acme", 2, 2).unwrap_err();
        assert!(err.contains("channels"), "{err}");
    }

    #[test]
    fn windows_roll_at_the_row_cap() {
        let cache = TenantCache::new();
        for i in 0..(MAX_ROWS + 10) {
            cache.observe("t", &[vec![i as f32]]);
        }
        let w = cache.window("t", 1, 1).expect("window");
        assert_eq!(w, vec![(MAX_ROWS + 9) as f32]);
        assert_eq!(cache.observe("t", &[]), MAX_ROWS);
    }

    #[test]
    fn a_row_of_another_width_restarts_the_history() {
        let cache = TenantCache::new();
        let wide: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32; 3]).collect();
        assert_eq!(cache.observe("t", &wide), 4);
        assert_eq!(cache.observe("t", &[vec![7.0, 8.0]]), 1);
        let err = cache.window("t", 1, 3).unwrap_err();
        assert!(err.contains("has 2 channels, model needs 3"), "{err}");
        assert_eq!(cache.window("t", 1, 2).expect("window"), vec![7.0, 8.0]);
        assert!(cache.window("t", 2, 2).unwrap_err().contains("1 rows"));
        // Zero-width rows still count, and an empty tenant reports rows.
        assert_eq!(cache.observe("z", &[]), 0);
        assert!(cache.window("z", 2, 3).unwrap_err().contains("0 rows"));
        assert_eq!(cache.observe("z", &[vec![], vec![]]), 2);
        assert_eq!(cache.window("z", 2, 0).expect("window"), Vec::<f32>::new());
    }

    #[test]
    fn rollover_across_wraps_matches_a_naive_row_list() {
        const WIDTH: usize = 7;
        let cache = TenantCache::new();
        // The same blocks, handed over as one flat buffer per block.
        let flat = TenantCache::new();
        let width = NonZeroUsize::new(WIDTH).expect("non-zero width");
        let mut naive: Vec<Vec<f32>> = Vec::new();
        let mut next = 0.0f32;
        // Uneven blocks so the trim point lands mid-block on every wrap.
        for block in 0..40 {
            let rows: Vec<Vec<f32>> = (0..(block * 37) % 301 + 1)
                .map(|_| {
                    (0..WIDTH)
                        .map(|_| {
                            next += 1.0;
                            next
                        })
                        .collect()
                })
                .collect();
            naive.extend(rows.iter().cloned());
            let keep = naive.len().min(MAX_ROWS);
            naive.drain(..naive.len() - keep);
            assert_eq!(cache.observe("t", &rows), naive.len());
            assert_eq!(flat.observe_rows("t", &rows.concat(), width), naive.len());
            for input_len in [1, 96, naive.len()]
                .into_iter()
                .filter(|&l| l <= naive.len())
            {
                let want: Vec<f32> = naive[naive.len() - input_len..].concat();
                assert_eq!(cache.window("t", input_len, WIDTH).expect("window"), want);
                assert_eq!(flat.window("t", input_len, WIDTH).expect("window"), want);
            }
        }
        assert!(
            next as usize > 3 * MAX_ROWS * WIDTH,
            "history must wrap several times"
        );
    }
}
