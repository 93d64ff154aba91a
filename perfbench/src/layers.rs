//! Per-layer metrics, derived from the traced run's spans (and, for the
//! service, from `/healthz` counters taken before and after the run).
//!
//! Phase times and counts are means per call of the layer function the
//! benchmark made; ratios are totals over totals. Every name in
//! [`PER_LAYER`] is always reported — 0 where the workload never calls the
//! layer — so a layer's numbers on a workload that bypasses it show that
//! it stayed idle.

use transyt_session::SessionStats;

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{Span, Spans};

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dbm.prep_ms", "ms"),
    ("dbm.search_ms", "ms"),
    ("dbm.configurations", "count"),
    ("dbm.subsumed", "count"),
    ("dbm.alu_subsumed", "count"),
    ("dbm.extrapolated_zones", "count"),
    ("dbm.projected_clocks", "count"),
    ("dbm.arena_allocated", "count"),
    ("dbm.us_per_config", "us"),
    ("dbm.arena_reuse_ratio", "ratio"),
    ("stg.expand_ms", "ms"),
    ("stg.markings", "count"),
    ("stg.firings", "count"),
    ("stg.markings_per_s", "1/s"),
    ("stg.rebuild_ms", "ms"),
    ("stg.bytes_per_marking", "B"),
    ("explore.levels", "count"),
    ("explore.max_frontier", "count"),
    ("explore.expanded_per_s", "1/s"),
    ("explore.subsumption_skip_ratio", "ratio"),
    ("core.verify_ms", "ms"),
    ("core.refinements", "count"),
    ("core.explored_states", "count"),
    ("core.constraints", "count"),
    ("core.search_ms", "ms"),
    ("ces.analysis_ms", "ms"),
    ("ces.analysis_share", "ratio"),
    ("tts.compose_ms", "ms"),
    ("ipcmos.build_ms", "ms"),
    ("session.add_model_ms", "ms"),
    ("session.render_ms", "ms"),
    ("session.run_overhead_ms", "ms"),
    ("session.runs_executed", "count"),
    ("session.memo_hits", "count"),
    ("session.runs_attached", "count"),
    ("server.upload_ms_p50", "ms"),
    ("server.submit_ms_p50", "ms"),
    ("server.submit_ms_tail", "ms"),
    ("server.poll_ms_p50", "ms"),
    ("server.result_ms_p50", "ms"),
    ("server.requests_per_job", "count"),
    ("server.run_ms_avg", "ms"),
    ("gate.queue_wait_ms_p50", "ms"),
    ("gate.queue_wait_ms_tail", "ms"),
    ("gate.rejects", "count"),
    ("gate.max_waiting", "count"),
    ("store.journal_bytes_per_job", "B"),
    ("store.journal_entries_per_job", "count"),
    ("store.compacted_bytes", "B"),
    ("store.result_bytes", "B"),
    ("store.store_hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("bench.late_max_ms", "ms"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.max_rate_under_slo", "1/s"),
    ("bench.tail_percentile", "%"),
    ("bench.samples", "count"),
    ("bench.failed_share", "share"),
];

/// Orders `found` by [`PER_LAYER`], filling every missing name with 0.
pub fn complete(found: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let unit: &'static str = unit;
        out.push(name, found.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Driver-level numbers of one exploration call, from its progress events.
struct Driver {
    levels: f64,
    max_frontier: f64,
    expanded: f64,
    skips: f64,
    /// First and last event time, µs.
    first_us: Option<f64>,
    last_level_us: Option<f64>,
}

fn driver(events: &[&Span]) -> Driver {
    let levels: Vec<&&Span> = events
        .iter()
        .filter(|e| e.name == "progress.level")
        .collect();
    let last_batch = events.iter().rev().find(|e| e.name == "progress.batch");
    Driver {
        levels: levels.len() as f64,
        max_frontier: levels
            .iter()
            .map(|e| e.attr("frontier"))
            .fold(0.0, f64::max),
        expanded: last_batch.map_or(0.0, |e| e.attr("expanded")),
        skips: last_batch.map_or(0.0, |e| e.attr("subsumption_skips")),
        first_us: events.first().map(|e| e.start_us),
        last_level_us: levels.last().map(|e| e.start_us),
    }
}

/// Per-layer metrics of an in-process traced run.
pub fn in_process(spans: &[Span], stats: &SessionStats) -> Metrics {
    let spans = Spans(spans.to_vec());
    let mut m = Metrics::default();

    // Explorations of every engine feed the driver metrics.
    let mut levels = Vec::new();
    let mut max_frontier: f64 = 0.0;
    let (mut expanded, mut skips, mut driver_s) = (0.0, 0.0, 0.0);

    // dbm: the direct `explore_timed_with` calls, preceded by the STG
    // expansion that builds their timed system.
    let (mut prep, mut search, mut configs) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: [Vec<f64>; 5] = Default::default();
    let (mut allocated, mut reused, mut search_us_total, mut config_total) = (0.0, 0.0, 0.0, 0.0);
    let timed_system: Vec<&Span> = spans.named("stg.timed_system").map(|(_, s)| s).collect();
    for (id, span) in spans.named("dbm.explore") {
        let events = spans.events(id);
        let d = driver(&events);
        let first = d.first_us.unwrap_or(span.end_us);
        let expansion = timed_system
            .iter()
            .find(|t| t.job == span.job)
            .map_or(0.0, |t| t.ms());
        prep.push(expansion + (first - span.start_us) / 1000.0);
        search.push((span.end_us - first) / 1000.0);
        search_us_total += span.end_us - first;
        configs.push(span.attr("configurations"));
        config_total += span.attr("configurations");
        for (slot, key) in [
            "subsumed",
            "alu_subsumed",
            "extrapolated_zones",
            "projected_clocks",
            "arena_allocated",
        ]
        .iter()
        .enumerate()
        {
            counts[slot].push(span.attr(key));
        }
        allocated += span.attr("arena_allocated");
        reused += span.attr("arena_reused");
        levels.push(d.levels);
        max_frontier = max_frontier.max(d.max_frontier);
        expanded += d.expanded;
        skips += d.skips;
        driver_s += (span.end_us - first) / 1e6;
    }
    m.push("dbm.prep_ms", mean(&prep), "ms");
    m.push("dbm.search_ms", mean(&search), "ms");
    m.push("dbm.configurations", mean(&configs), "count");
    for (slot, name) in [
        "dbm.subsumed",
        "dbm.alu_subsumed",
        "dbm.extrapolated_zones",
        "dbm.projected_clocks",
        "dbm.arena_allocated",
    ]
    .iter()
    .enumerate()
    {
        m.push(name, mean(&counts[slot]), "count");
    }
    m.push(
        "dbm.us_per_config",
        ratio(search_us_total, config_total),
        "us",
    );
    m.push(
        "dbm.arena_reuse_ratio",
        ratio(reused, allocated + reused),
        "ratio",
    );

    // stg: direct `expand_with_report` calls (zones on STG models), else the expansions
    // that build timed systems (zones, verify).
    let expands: Vec<(usize, &Span)> = spans.named("stg.expand").collect();
    if expands.is_empty() {
        let times: Vec<f64> = timed_system.iter().map(|s| s.ms()).collect();
        m.push("stg.expand_ms", mean(&times), "ms");
    } else {
        let (mut times, mut markings, mut firings, mut rebuild) = (vec![], vec![], vec![], vec![]);
        let (mut marking_total, mut seconds, mut retained) = (0.0, 0.0, 0.0);
        for (id, span) in &expands {
            let events = spans.events(*id);
            let d = driver(&events);
            times.push(span.ms());
            markings.push(span.attr("markings"));
            firings.push(span.attr("firings"));
            marking_total += span.attr("markings");
            seconds += span.ms() / 1000.0;
            retained += span.attr("retained_bytes");
            rebuild.push((span.end_us - d.last_level_us.unwrap_or(span.end_us)) / 1000.0);
            levels.push(d.levels);
            max_frontier = max_frontier.max(d.max_frontier);
            expanded += d.expanded;
            skips += d.skips;
            driver_s += (d.last_level_us.unwrap_or(span.end_us)
                - d.first_us.unwrap_or(span.start_us))
                / 1e6;
        }
        m.push("stg.expand_ms", mean(&times), "ms");
        m.push("stg.markings", mean(&markings), "count");
        m.push("stg.firings", mean(&firings), "count");
        m.push("stg.markings_per_s", ratio(marking_total, seconds), "1/s");
        m.push("stg.rebuild_ms", mean(&rebuild), "ms");
        m.push("stg.bytes_per_marking", ratio(retained, marking_total), "B");
    }

    // core + ces: every `transyt::verify` call, split into search passes
    // (a Refinement event to the pass's last search event) and the CES
    // analysis that follows each pass.
    let (mut verify_ms, mut refinements, mut states, mut constraints) =
        (vec![], vec![], vec![], vec![]);
    let (mut search_ms, mut analysis_ms) = (vec![], vec![]);
    let (mut analysis_total, mut verify_total) = (0.0, 0.0);
    for (id, span) in spans.named("core.verify") {
        let events = spans.events(id);
        verify_ms.push(span.ms());
        verify_total += span.ms();
        refinements.push(span.attr("refinements"));
        states.push(span.attr("explored_states"));
        constraints.push(span.attr("constraints"));
        let (search, analysis) = passes(&events, span.end_us);
        search_ms.push(search);
        analysis_ms.push(analysis);
        analysis_total += analysis;
        let d = driver(&events);
        levels.push(d.levels);
        max_frontier = max_frontier.max(d.max_frontier);
        expanded += d.expanded;
        skips += d.skips;
        driver_s += search / 1000.0;
    }
    m.push("core.verify_ms", mean(&verify_ms), "ms");
    m.push("core.refinements", mean(&refinements), "count");
    m.push("core.explored_states", mean(&states), "count");
    m.push("core.constraints", mean(&constraints), "count");
    m.push("core.search_ms", mean(&search_ms), "ms");
    m.push("ces.analysis_ms", mean(&analysis_ms), "ms");
    m.push(
        "ces.analysis_share",
        ratio(analysis_total, verify_total),
        "ratio",
    );

    m.push("explore.levels", mean(&levels), "count");
    m.push("explore.max_frontier", max_frontier, "count");
    m.push("explore.expanded_per_s", ratio(expanded, driver_s), "1/s");
    m.push(
        "explore.subsumption_skip_ratio",
        ratio(skips, expanded + skips),
        "ratio",
    );

    // Set-up layers: sums over the one set-up.
    let total = |name: &str| spans.named(name).map(|(_, s)| s.ms()).sum::<f64>();
    m.push("tts.compose_ms", total("tts.compose"), "ms");
    m.push("ipcmos.build_ms", total("ipcmos.build"), "ms");
    let add: Vec<f64> = spans
        .named("session.add_model")
        .map(|(_, s)| s.ms())
        .collect();
    m.push("session.add_model_ms", mean(&add), "ms");
    let render: Vec<f64> = spans.named("session.render").map(|(_, s)| s.ms()).collect();
    m.push("session.render_ms", mean(&render), "ms");
    // Session::run minus the direct engine call(s) on the same input.
    let mut overhead = Vec::new();
    for (_, run) in spans.named("session.run") {
        let engine = spans
            .0
            .iter()
            .filter(|s| {
                s.job == run.job
                    && matches!(
                        s.name,
                        "stg.expand" | "stg.timed_system" | "dbm.explore" | "core.verify"
                    )
            })
            .map(Span::ms)
            .sum::<f64>();
        overhead.push(run.ms() - engine);
    }
    m.push("session.run_overhead_ms", median(&overhead), "ms");
    m.push("session.runs_executed", stats.runs_executed as f64, "count");
    m.push("session.memo_hits", stats.memo_hits as f64, "count");
    m.push("session.runs_attached", stats.runs_attached as f64, "count");
    m
}

/// Splits one verify call's events into `(search ms, analysis ms)` summed
/// over its refinement passes.
fn passes(events: &[&Span], end_us: f64) -> (f64, f64) {
    let (mut search, mut analysis) = (0.0, 0.0);
    let starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.name == "progress.refinement")
        .map(|(i, _)| i)
        .collect();
    for (k, &start) in starts.iter().enumerate() {
        let stop = starts.get(k + 1).copied().unwrap_or(events.len());
        let next_us = events.get(stop).map_or(end_us, |e| e.start_us);
        let begin_us = events[start].start_us;
        let last_search_us = events[start + 1..stop]
            .iter()
            .rev()
            .find(|e| e.name == "progress.level" || e.name == "progress.batch")
            .map_or(begin_us, |e| e.start_us);
        search += (last_search_us - begin_us) / 1000.0;
        analysis += (next_us - last_search_us) / 1000.0;
    }
    (search, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, at: f64) -> Span {
        Span {
            job: 1,
            parent: Some(0),
            name,
            start_us: at,
            end_us: at,
            attrs: vec![],
        }
    }

    #[test]
    fn refinement_passes_split_into_search_and_analysis() {
        let events = [
            event("progress.refinement", 0.0),
            event("progress.level", 1000.0),
            event("progress.level", 3000.0),
            event("progress.refinement", 5000.0),
            event("progress.batch", 6000.0),
        ];
        let refs: Vec<&Span> = events.iter().collect();
        let (search, analysis) = passes(&refs, 10_000.0);
        // Pass 0: search 0..3000, analysis 3000..5000; pass 1: search
        // 5000..6000, analysis 6000..10000.
        assert_eq!(search, 4.0);
        assert_eq!(analysis, 6.0);
    }
}
