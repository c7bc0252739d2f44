//! Runtime configuration.

use rupcxx_net::{
    AggConfig, CacheConfig, CheckConfig, ConduitSel, FabricConfig, FaultPlan, RemoteConfig,
    ScheduleConfig, SimNet,
};
use rupcxx_trace::{ProfConfig, TraceConfig};

/// Parameters for an SPMD job.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of SPMD ranks.
    pub ranks: usize,
    /// Globally addressable segment size per rank, in bytes.
    pub segment_bytes: usize,
    /// Thread-support mode (paper §IV): `false` = *serialized* mode — the
    /// rank's own calls drive progress (`advance()` runs inside blocking
    /// operations); `true` = *concurrent* mode — a dedicated worker thread
    /// per rank also drives progress, so incoming asyncs execute even
    /// while the rank computes without touching the runtime.
    pub progress_thread: bool,
    /// Optional synthetic wire timing injected into remote fabric
    /// operations (measured latency-bound behaviour on the host).
    pub simnet: Option<SimNet>,
    /// Tracing/metrics configuration. [`RuntimeConfig::new`] seeds this
    /// from the `RUPCXX_TRACE` environment variable, so harnesses get
    /// tracing for free; override with [`RuntimeConfig::with_trace`].
    pub trace: TraceConfig,
    /// Deterministic fault-injection plan for the fabric (chaos testing).
    /// [`RuntimeConfig::new`] seeds this from `RUPCXX_FAULTS`; override
    /// with [`RuntimeConfig::with_faults`]. None = fault-free fast path.
    pub faults: Option<FaultPlan>,
    /// Per-destination aggregation of fine-grained AM/RMA traffic.
    /// [`RuntimeConfig::new`] seeds this from `RUPCXX_AGG`; override with
    /// [`RuntimeConfig::with_agg`]. None = aggregation off (every buffered
    /// entry point falls through to the direct op).
    pub agg: Option<AggConfig>,
    /// Online happens-before race / deadlock checker configuration.
    /// [`RuntimeConfig::new`] seeds this from `RUPCXX_CHECK`; override
    /// with [`RuntimeConfig::with_check`]. None = checking off (one
    /// untaken branch per hook).
    pub check: Option<CheckConfig>,
    /// Software read cache for remote global-memory gets.
    /// [`RuntimeConfig::new`] seeds this from `RUPCXX_CACHE`; override
    /// with [`RuntimeConfig::with_cache`]. None = caching off (one
    /// untaken branch per get).
    pub cache: Option<CacheConfig>,
    /// The profile view of the recorder both this and `trace` feed:
    /// causal spans on the wire, wait-state attribution, the
    /// critical-path report at teardown. [`RuntimeConfig::new`] seeds
    /// this from `RUPCXX_PROF`; override with
    /// [`RuntimeConfig::with_prof`]. None = no spans on the wire.
    pub prof: Option<ProfConfig>,
    /// Controlled AM delivery schedule (model checking / replay).
    /// [`RuntimeConfig::new`] seeds this from `RUPCXX_SCHEDULE`; override
    /// with [`RuntimeConfig::with_schedule`]. None = direct delivery
    /// (one untaken branch per AM, wire traffic unchanged). Mutually
    /// exclusive with `faults`.
    pub schedule: Option<ScheduleConfig>,
    /// Transport conduit for multi-process jobs (see `rupcxx-net`'s
    /// `conduit` module and `spmd_procs`). [`RuntimeConfig::new`] seeds
    /// this from `RUPCXX_CONDUIT`
    /// (`loopback|shm:PATH|tcp:HOST:BASE_PORT|uds:DIR`); override with
    /// [`RuntimeConfig::with_conduit`]. None (or `loopback`) = ranks are
    /// threads of this process, exactly the pre-conduit runtime.
    pub conduit: Option<ConduitSel>,
}

impl RuntimeConfig {
    /// A job with `ranks` ranks and the default 16 MiB segment.
    pub fn new(ranks: usize) -> Self {
        RuntimeConfig {
            ranks,
            segment_bytes: 16 << 20,
            progress_thread: false,
            simnet: None,
            trace: TraceConfig::from_env(),
            faults: FaultPlan::from_env(),
            agg: AggConfig::from_env(),
            check: CheckConfig::from_env(),
            cache: CacheConfig::from_env(),
            prof: ProfConfig::from_env(),
            schedule: ScheduleConfig::from_env(),
            conduit: ConduitSel::from_env(),
        }
    }

    /// The fabric this job runs on: in-process (`remote` = None), or one
    /// rank of a multi-process job reaching its peers through a conduit.
    pub(crate) fn fabric_config(&self, remote: Option<RemoteConfig>) -> FabricConfig {
        // The clones are made in the order the launchers have always
        // made them: heap placement of what `Fabric::new` allocates next
        // (the endpoint array) moves the two-rank word path by up to 4x
        // (see the ledger README), so the allocation sequence is pinned.
        FabricConfig {
            ranks: self.ranks,
            segment_bytes: self.segment_bytes,
            simnet: self.simnet,
            trace: self.trace.clone(),
            faults: self.faults.clone(),
            agg: self.agg.clone(),
            check: self.check.clone(),
            cache: self.cache.clone(),
            prof: self.prof.clone(),
            schedule: self.schedule.clone(),
            remote,
        }
    }

    /// Replace the tracing configuration (overriding `RUPCXX_TRACE`).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Install a fault-injection plan (overriding `RUPCXX_FAULTS`).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enable per-destination message aggregation (overriding
    /// `RUPCXX_AGG`).
    pub fn with_agg(mut self, agg: AggConfig) -> Self {
        self.agg = Some(agg);
        self
    }

    /// Install the online race/deadlock checker (overriding
    /// `RUPCXX_CHECK`).
    pub fn with_check(mut self, check: CheckConfig) -> Self {
        self.check = Some(check);
        self
    }

    /// Enable the software read cache for remote gets (overriding
    /// `RUPCXX_CACHE`).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enable the causal cross-rank profiler (overriding `RUPCXX_PROF`).
    pub fn with_prof(mut self, prof: ProfConfig) -> Self {
        self.prof = Some(prof);
        self
    }

    /// Install a controlled AM delivery schedule (overriding
    /// `RUPCXX_SCHEDULE`).
    pub fn with_schedule(mut self, schedule: ScheduleConfig) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Select the transport conduit for `spmd_procs` (overriding
    /// `RUPCXX_CONDUIT`).
    pub fn with_conduit(mut self, conduit: ConduitSel) -> Self {
        self.conduit = Some(conduit);
        self
    }

    /// Inject synthetic wire timing into every remote operation.
    pub fn with_simnet(mut self, simnet: SimNet) -> Self {
        self.simnet = Some(simnet);
        self
    }

    /// Enable the concurrent thread-support mode (a progress worker
    /// thread per rank).
    pub fn with_progress_thread(mut self) -> Self {
        self.progress_thread = true;
        self
    }

    /// Set the per-rank segment size in bytes.
    pub fn segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Set the per-rank segment size in mebibytes.
    pub fn segment_mib(mut self, mib: usize) -> Self {
        self.segment_bytes = mib << 20;
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let c = RuntimeConfig::new(8).segment_mib(2);
        assert_eq!(c.ranks, 8);
        assert_eq!(c.segment_bytes, 2 << 20);
        assert!(!c.progress_thread);
        let d = RuntimeConfig::new(2)
            .segment_bytes(4096)
            .with_progress_thread();
        assert_eq!(d.segment_bytes, 4096);
        assert!(d.progress_thread);
    }

    #[test]
    fn with_faults_installs_plan() {
        let c = RuntimeConfig::new(2).with_faults(FaultPlan::new(42).drop(0.1));
        let plan = c.faults.expect("plan installed");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.base.drop_ppm, 100_000);
    }

    #[test]
    fn with_agg_switches_aggregation_on() {
        let c = RuntimeConfig::new(2).with_agg(AggConfig::new());
        assert!(c.agg.is_some() && c.fabric_config(None).agg.is_some());
    }

    #[test]
    fn with_cache_installs_config() {
        let c = RuntimeConfig::new(2).with_cache(CacheConfig::new().line_bytes(128));
        let cache = c.cache.expect("cache installed");
        assert_eq!(cache.line_bytes, 128);
    }
}
