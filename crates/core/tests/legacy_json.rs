//! Configs and reports written before the adaptive join planner was
//! removed still load.
//!
//! The fixtures were serialized by that earlier version: the config at its
//! defaults, the report from mining the `soccer_fixture` world. They carry
//! the retired planner knobs (`use_adaptive_planner`, `miner.planner`,
//! `miner.forced_plan`, `miner.join_threads`) and counters (`replans`,
//! `plan_cache_*`, `plan_picks_*`), which deserialization ignores.

use wiclean_core::config::WcConfig;
use wiclean_core::report::WcReport;

const CONFIG: &str = include_str!("fixtures/planner_era_config.json");
const REPORT: &str = include_str!("fixtures/planner_era_report.json");

#[test]
fn planner_era_config_loads_as_todays_defaults() {
    for retired in [
        "use_adaptive_planner",
        "\"planner\"",
        "forced_plan",
        "join_threads",
    ] {
        assert!(CONFIG.contains(retired), "fixture lost {retired}");
    }
    let config: WcConfig = serde_json::from_str(CONFIG).expect("legacy config loads");
    assert_eq!(config, WcConfig::default());
}

#[test]
fn planner_era_report_round_trips() {
    for retired in [
        "replans",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_picks_hash",
    ] {
        assert!(REPORT.contains(retired), "fixture lost {retired}");
    }
    let report = WcReport::from_json(REPORT).expect("legacy report loads");
    assert_eq!(report.stats.joins_executed, 48);
    assert_eq!(report.stats.rows_probed, 212);
    assert_eq!(report.stats.pairs_matched, 24);
    assert_eq!(report.patterns.len(), 1);
    let json = report.to_json();
    assert!(!json.contains("plan_picks"));
    assert_eq!(WcReport::from_json(&json).unwrap(), report);
}
