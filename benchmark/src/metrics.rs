//! The metric names the benchmark prints — the same list `BENCHMARK.json`
//! declares (a test holds the two together).

/// One declared metric. `bound` is the relative worsening that counts as a
/// regression; per-layer metrics explain, they do not gate, and carry none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 8] = [
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("lookups_per_s", "1/s", "higher", 0.25),
    end_to_end("epoch_ms_p50", "ms", "lower", 0.25),
    end_to_end("epoch_ms_p90", "ms", "lower", 0.25),
    end_to_end("peak_rss_mb", "MB", "lower", 0.10),
    end_to_end("hops_mean", "hops", "lower", 0.05),
    end_to_end("hops_p99", "hops", "lower", 0.10),
    end_to_end("delivered_share", "ratio", "higher", 0.01),
];

/// What single layers did; measured by the traced run.
pub const PER_LAYER: [MetricDef; 35] = [
    layer("scenario.parse_us", "us", "lower"),
    layer("scenario.batch_gen_ms", "ms/epoch", "lower"),
    layer("construction.build_s", "s", "lower"),
    layer("construction.join_us", "us/event", "lower"),
    layer("construction.leave_us", "us/event", "lower"),
    layer("construction.joins", "count", "lower"),
    layer("construction.leaves", "count", "lower"),
    layer("overlay.freeze_ms", "ms", "lower"),
    layer("overlay.apply_delta_us", "us/epoch", "lower"),
    layer("overlay.rows_patched", "count", "lower"),
    layer("overlay.rows_in_place", "count", "higher"),
    layer("overlay.compactions", "count", "lower"),
    layer("overlay.rebuild_fallbacks", "count", "lower"),
    layer("routing.walk_ns_per_hop", "ns", "lower"),
    layer("routing.walk_ns_per_lookup", "ns", "lower"),
    layer("routing.hops_per_lookup", "hops", "lower"),
    layer("routing.recoveries_per_lookup", "count", "lower"),
    layer("engine.batch_ms", "ms/epoch", "lower"),
    layer("engine.dispatch_us", "us/batch", "lower"),
    layer("engine.cache_hit_ns", "ns", "lower"),
    layer("engine.cache_miss_insert_ns", "ns", "lower"),
    layer("engine.per_lookup_overhead_ns", "ns", "lower"),
    layer("engine.cache_hit_share", "ratio", "higher"),
    layer("engine.retries_per_lookup", "ratio", "lower"),
    layer("engine.invalidate_us", "us/epoch", "lower"),
    layer("engine.routes_evicted", "count", "lower"),
    layer("failure.schedule_us", "us/epoch", "lower"),
    layer("failure.apply_ms", "ms/event", "lower"),
    layer("failure.heal_ms", "ms/event", "lower"),
    layer("failure.nodes_failed", "count", "lower"),
    layer("theory.oracle_build_ms", "ms/epoch", "lower"),
    layer("theory.classify_ns_per_lookup", "ns", "lower"),
    layer("trace.coverage_share", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("model.batch_residual_share", "ratio", "lower"),
];

/// Named readings in declaration order, ready to print.
#[derive(Debug, Default)]
pub struct Readings(Vec<(&'static str, f64)>);

impl Readings {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Pairs every declared metric with its reading.
    ///
    /// # Errors
    ///
    /// When a declared metric was not measured, or an undeclared one was: the
    /// printed set must be exactly the declared set.
    pub fn against<'a>(
        &self,
        declared: &'a [MetricDef],
    ) -> Result<Vec<(&'a MetricDef, f64)>, String> {
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(name, _)| !declared.iter().any(|d| d.name == *name))
        {
            return Err(format!("metric `{extra}` was measured but is not declared"));
        }
        declared
            .iter()
            .map(|def| {
                let value = self.get(def.name).ok_or_else(|| {
                    format!("metric `{}` is declared but was not measured", def.name)
                })?;
                if value.is_finite() {
                    Ok((def, value))
                } else {
                    Err(format!("metric `{}` is not finite", def.name))
                }
            })
            .collect()
    }
}
