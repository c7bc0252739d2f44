//! Causal span propagation — the cross-rank backbone of the profile view.
//!
//! With `RUPCXX_PROF` on, every AM/batch frame carries a compact
//! [`ProfSpan`]: the injecting rank packed into the id's high bits plus
//! the injection timestamp. It piggybacks on `AmMessage` exactly the way
//! the checker's `Stamp` does, so it survives retransmits (the whole
//! message rides the limbo/lost queues) and aggregation (a batch is one
//! sequenced frame). On receipt the consuming rank *joins* the span: the
//! recorder learns when the newest message it absorbed was injected,
//! which is what wait-state classification needs to tell a late sender
//! from a starved progress engine.

/// Default critical-path JSON output path.
pub const DEFAULT_PROF_PATH: &str = "rupcxx_prof.json";

/// A causal span id carried on the wire: the injecting rank in the top
/// 16 bits, a per-rank counter below, plus the injection timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfSpan {
    /// `(origin rank) << 48 | per-rank counter`.
    pub id: u64,
    /// Injection time, ns since the trace epoch.
    pub inject_ns: u64,
}

impl ProfSpan {
    /// The rank that injected this span.
    pub fn origin(self) -> usize {
        (self.id >> 48) as usize
    }
}

/// Profile-view configuration, usually parsed from `RUPCXX_PROF`: spans
/// ride the wire and the critical-path report is written at teardown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfConfig {
    /// Critical-path JSON output path (None = [`DEFAULT_PROF_PATH`]).
    pub json_path: Option<String>,
}

impl ProfConfig {
    /// Profiling enabled with defaults.
    pub fn on() -> Self {
        ProfConfig::default()
    }

    /// Set the critical-path JSON output path.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.json_path = Some(path.into());
        self
    }

    /// The JSON output path to use.
    pub fn path(&self) -> &str {
        self.json_path.as_deref().unwrap_or(DEFAULT_PROF_PATH)
    }

    /// Parse a `RUPCXX_PROF` value: `on[,path]` / `off`. `Ok(None)` means
    /// explicitly off; malformed values are `Err`.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        match crate::mode_and_path(raw)? {
            None => Ok(None),
            Some(("on" | "1" | "true", json_path)) => Ok(Some(ProfConfig { json_path })),
            Some((other, _)) => Err(format!("unknown mode {other:?}")),
        }
    }

    /// Read `RUPCXX_PROF` from the environment. Unset means disabled;
    /// malformed values abort with a clear message.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env("RUPCXX_PROF", "on[,<path>]", ProfConfig::parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parser_accepts_and_rejects() {
        assert!(ProfConfig::parse("off").unwrap().is_none());
        assert!(ProfConfig::parse("").unwrap().is_none());
        assert!(ProfConfig::parse("0").unwrap().is_none());
        let c = ProfConfig::parse("on").unwrap().unwrap();
        assert_eq!(c.path(), DEFAULT_PROF_PATH);
        let c = ProfConfig::parse("on,prof.json").unwrap().unwrap();
        assert_eq!(c.path(), "prof.json");
        assert!(ProfConfig::parse("maybe").is_err());
        assert!(ProfConfig::parse("on,").is_err());
        assert!(ProfConfig::parse("off,x.json").is_err());
    }
}
