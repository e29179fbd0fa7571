//! Multi-tenant isolation study (§I, the shared Texera deployment).
//!
//! The GUI paradigm's deployment story is a *service*: one cluster,
//! many users, each clicking "run" on their own workflow without
//! coordinating with anyone else. The claim worth measuring is
//! isolation — a neighbor's broken workflow (a fault storm, a retry
//! loop) must not change what *your* run computes, and overload must be
//! an explicit answer rather than a silent stall. This module stages
//! exactly that on [`scriptflow_workflow::service::WorkflowService`]:
//! a noisy tenant running a seeded fault + retry storm, a quiet tenant
//! running a clean pipeline on the same two worker threads, and an
//! overload probe that must be turned away with a named reason.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use scriptflow_core::{Artifact, Experiment, ExperimentMeta, Table};
use scriptflow_datakit::{Batch, DataType, Schema, Value};
use scriptflow_workflow::ops::{FilterOp, ScanOp, SinkHandle, SinkOp};
use scriptflow_workflow::service::{
    RunOptions, ServiceConfig, SubmitError, TenantQuota, WorkflowService,
};
use scriptflow_workflow::{
    Backoff, FaultPlan, LiveExecutor, PartitionStrategy, RetryConfig, RetryPolicy, Workflow,
    WorkflowBuilder,
};

/// Rows each tenant's pipeline scans.
const ROWS: i64 = 4_096;
/// Seed for the noisy tenant's fault plan.
const SEED: u64 = 7;
/// 1-based tuple at which the noisy tenant's filter panics.
const FAULT_AT: u64 = 512;

/// What one tenant of the shared service can report after its run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name as admitted by the service.
    pub tenant: &'static str,
    /// What the tenant submitted.
    pub workload: &'static str,
    /// Run outcome ("completed" / "failed: …" / "rejected: …").
    pub outcome: String,
    /// Rows delivered to the tenant's sink.
    pub rows: u64,
    /// Rows the same DAG delivers on a solo executor (the anchor).
    pub rows_solo: u64,
}

/// A latch the driver opens once; until then [`Gate::wait`] blocks.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    /// Nothing panics while it holds the flag's lock.
    const UNPOISONED: &str = "the gate's lock is never held across a panic";

    fn wait(&self) {
        let open = self.open.lock().expect(Self::UNPOISONED);
        drop(
            self.opened
                .wait_while(open, |open| !*open)
                .expect(Self::UNPOISONED),
        );
    }

    fn open(&self) {
        *self.open.lock().expect(Self::UNPOISONED) = true;
        self.opened.notify_all();
    }
}

/// scan → filter(even) → sink with a fresh sink per build. The filter
/// calls `hold` before it looks at a tuple.
fn tenant_pipeline(
    name_prefix: &str,
    hold: impl Fn() + Send + Sync + 'static,
) -> (Workflow, SinkHandle) {
    let schema = Schema::of(&[("id", DataType::Int)]);
    let batch = Batch::from_rows(schema, (0..ROWS).map(|i| vec![Value::Int(i)]).collect())
        .expect("schema matches rows");
    let mut b = WorkflowBuilder::new();
    let scan = b.add(
        Arc::new(ScanOp::new(format!("{name_prefix}-scan"), batch)),
        1,
    );
    let filter = b.add(
        Arc::new(FilterOp::new(format!("{name_prefix}-filter"), move |t| {
            hold();
            Ok(t.get_int("id")? % 2 == 0)
        })),
        2,
    );
    let sink_op = Arc::new(SinkOp::new(format!("{name_prefix}-sink")));
    let handle = sink_op.handle();
    let sink = b.add(sink_op, 1);
    b.connect(scan, filter, 0, PartitionStrategy::RoundRobin);
    b.connect(filter, sink, 0, PartitionStrategy::Single);
    (b.build().expect("tenant pipeline is a valid DAG"), handle)
}

/// Stage the isolation scenario: one 2-thread service, a noisy tenant
/// whose filter panics mid-run under a retry budget (the storm), a
/// quiet tenant running clean, and an over-quota probe. Deterministic:
/// the fault is seeded, the retry budget absorbs it, and both tenants'
/// row multisets are fixed by the DAGs.
pub fn observe_isolation() -> (TenantReport, TenantReport, String) {
    // Solo anchors first — what each DAG computes with the pool to
    // itself.
    let (solo_wf, solo_sink) = tenant_pipeline("quiet", || ());
    LiveExecutor::new(64)
        .with_pool_size(2)
        .run(&solo_wf)
        .expect("solo anchor runs");
    let quiet_solo = solo_sink.len() as u64;

    let svc = WorkflowService::new(
        ServiceConfig::default()
            .with_pool_size(2)
            .with_max_active_runs(2)
            .with_default_quota(TenantQuota::default().with_max_in_flight(1)),
    );

    // The noisy run's filter waits at a gate this driver opens only once
    // the over-quota probe below has been answered, so the run is in
    // flight when the probe is attempted however the pool schedules it;
    // the panic plus the retry budget is the storm itself.
    let gate = Arc::new(Gate::default());
    let held = Arc::clone(&gate);
    let (noisy_wf, noisy_sink) = tenant_pipeline("noisy", move || held.wait());
    let storm = FaultPlan::new(SEED).panic_at("noisy-filter", FAULT_AT);
    let retry = RetryConfig::uniform(RetryPolicy::attempts(3).with_backoff(Backoff {
        base: Duration::from_millis(2),
        factor: 2,
        cap: Duration::from_millis(8),
    }));
    let noisy_run = svc
        .submit(
            "noisy",
            &noisy_wf,
            RunOptions::default().with_faults(storm).with_retry(retry),
        )
        .expect("noisy tenant admitted");

    let (quiet_wf, quiet_sink) = tenant_pipeline("quiet", || ());
    let quiet_run = svc
        .submit("quiet", &quiet_wf, RunOptions::default())
        .expect("quiet tenant admitted");

    // The noisy tenant is at its in-flight quota of 1: its second
    // submission is the overload probe and must be rejected by name.
    let (probe_wf, _probe_sink) = tenant_pipeline("probe", || ());
    let probe = match svc.submit("noisy", &probe_wf, RunOptions::default()) {
        Err(e @ SubmitError::TenantOverQuota { .. }) => format!("rejected: {e}"),
        other => format!("NOT rejected: {other:?}"),
    };
    gate.open();

    let quiet_report = quiet_run.wait();
    let quiet = TenantReport {
        tenant: "quiet",
        workload: "clean scan→filter→sink",
        outcome: match &quiet_report.result {
            Ok(_) => "completed".into(),
            Err(e) => format!("failed: {e}"),
        },
        rows: quiet_sink.len() as u64,
        rows_solo: quiet_solo,
    };

    let noisy_report = noisy_run.wait();
    let noisy = TenantReport {
        tenant: "noisy",
        workload: "same DAG + seeded panic@512 + retry budget",
        outcome: match &noisy_report.result {
            Ok(_) => "completed (storm absorbed by retry)".into(),
            Err(e) => format!("failed: {e}"),
        },
        rows: noisy_sink.len() as u64,
        // The retry budget replays the faulted quantum exactly once,
        // so the storm changes nothing about what the DAG computes.
        rows_solo: quiet_solo,
    };

    (noisy, quiet, probe)
}

/// The multi-tenant isolation scenario as a study experiment: one row
/// per tenant plus the overload probe, all deterministic.
pub struct ServiceIsolation;

const COLUMNS: [&str; 5] = [
    "tenant",
    "workload",
    "outcome",
    "rows delivered",
    "rows solo",
];

impl Experiment for ServiceIsolation {
    fn meta(&self) -> ExperimentMeta {
        ExperimentMeta {
            id: "service",
            paper_artifact: "§I (shared deployment)",
            description: "Multi-tenant isolation: a neighbor's fault+retry storm on the shared \
                          pool changes nothing about what a quiet tenant computes",
        }
    }

    fn run(&self) -> Artifact {
        let (noisy, quiet, probe) = observe_isolation();
        let mut t = Table::new("shared service — tenant isolation", &COLUMNS);
        for r in [&quiet, &noisy] {
            t.push_row(vec![
                r.tenant.to_owned(),
                r.workload.to_owned(),
                r.outcome.clone(),
                r.rows.to_string(),
                r.rows_solo.to_string(),
            ]);
        }
        t.push_row(vec![
            "noisy (2nd run)".to_owned(),
            "over-quota probe".to_owned(),
            probe,
            "0".to_owned(),
            "-".to_owned(),
        ]);
        Artifact::Table(t)
    }

    fn paper_reference(&self) -> Artifact {
        let mut t = Table::new("shared service — tenant isolation (paper)", &COLUMNS);
        t.push_row(vec![
            "any user".to_owned(),
            "own workflow on the shared cluster".to_owned(),
            "unaffected by neighbors".to_owned(),
            "same as running alone".to_owned(),
            "same as running alone".to_owned(),
        ]);
        t.push_row(vec![
            "over capacity".to_owned(),
            "one more concurrent run".to_owned(),
            "explicit admission control".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ]);
        Artifact::Table(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_tenant_is_isolated_from_the_storm() {
        let (noisy, quiet, probe) = observe_isolation();
        assert_eq!(quiet.outcome, "completed");
        assert_eq!(quiet.rows, quiet.rows_solo, "{quiet:?}");
        assert_eq!(quiet.rows, (ROWS / 2) as u64);
        // The retry budget absorbs the storm: the noisy tenant also
        // delivers its full row count, exactly once.
        assert_eq!(noisy.rows, noisy.rows_solo, "{noisy:?}");
        assert!(noisy.outcome.starts_with("completed"), "{noisy:?}");
        assert!(probe.starts_with("rejected:"), "{probe}");
    }

    #[test]
    fn isolation_report_is_deterministic() {
        assert_eq!(observe_isolation(), observe_isolation());
    }

    #[test]
    fn experiment_table_has_tenant_rows_and_probe() {
        let Artifact::Table(t) = ServiceIsolation.run() else {
            panic!("expected table");
        };
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "quiet");
        assert_eq!(t.rows[1][0], "noisy");
        assert_eq!(t.rows[0][3], t.rows[0][4], "quiet rows match solo");
        assert!(t.rows[2][2].starts_with("rejected:"));
    }
}
