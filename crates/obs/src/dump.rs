//! Trace sinks: the merged timeline ([`TraceDump`]) and its renderings.
//!
//! A dump merges every thread ring of an [`Obs`] handle into one sequence-
//! ordered timeline. [`TraceDump::render`] prints the whole timeline;
//! [`TraceDump::render_gtid`] narrows it to one global transaction — the 2PC
//! forensic view a failing crash-fuzz seed prints so the log alone shows
//! which PREPAREs persisted, whether the decision record made it, and which
//! participants saw phase 2 before the crash.
//!
//! [`Obs`]: crate::Obs

use crate::trace::{Event, EventKind};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Environment variable naming a directory where [`TraceDump::write_file`]
/// drops rendered dumps (the CI crash-stress job uploads it as an artifact).
pub const DUMP_DIR_ENV: &str = "REWIND_TRACE_DUMP_DIR";

/// A merged, sequence-ordered copy of every trace ring.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// All captured events, ascending by global sequence number.
    pub events: Vec<Event>,
    /// Events lost to ring overwrite (drop-oldest) before the dump.
    pub dropped: u64,
}

impl TraceDump {
    /// Global transaction ids that appear in any 2PC event, in first-seen
    /// order.
    pub fn gtids(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for e in &self.events {
            if matches!(
                e.kind,
                EventKind::TwoPcStart
                    | EventKind::TwoPcPrepare
                    | EventKind::TwoPcDecision
                    | EventKind::TwoPcCommitPart
                    | EventKind::TwoPcAbortPart
                    | EventKind::TwoPcRetire
                    | EventKind::TwoPcInDoubt
                    | EventKind::TwoPcResolve
            ) && e.gtid != 0
                && !out.contains(&e.gtid)
            {
                out.push(e.gtid);
            }
        }
        out
    }

    /// One human-readable line per event.
    pub fn describe(e: &Event) -> String {
        use EventKind::*;
        let what = match e.kind {
            TxnBegin => format!("txn BEGIN txid={}", e.gtid),
            TxnAppend => format!("txn APPEND txid={} lsn={}", e.gtid, e.a),
            TxnCommit => format!("txn COMMIT txid={} ({} ns)", e.gtid, e.a),
            TxnRollback => format!("txn ROLLBACK txid={}", e.gtid),
            TxnFence => format!("txn FENCE txid={}", e.gtid),
            GroupForm => format!("group FORM size={} shard={}", e.a, e.b),
            GroupFlush => format!("group FLUSH size={} ({} ns)", e.a, e.b),
            LogGroupSeal => format!("log GROUP-SEAL records={}", e.a),
            CoordJoin => format!("coord JOIN shard={}", e.a),
            LockOrderRestart => "coord LOCK-ORDER RESTART".to_string(),
            SerialFallback => "coord SERIAL FALLBACK".to_string(),
            TwoPcStart => format!("2PC START gtid={} writers={}", e.gtid, e.a),
            TwoPcPrepare => format!("2PC PREPARE gtid={} shard={} ({} ns)", e.gtid, e.a, e.b),
            TwoPcDecision => format!(
                "2PC DECISION gtid={} {} persisted",
                e.gtid,
                if e.a == 1 { "COMMIT" } else { "ABORT" }
            ),
            TwoPcCommitPart => format!("2PC COMMIT gtid={} shard={}", e.gtid, e.a),
            TwoPcAbortPart => format!("2PC ABORT gtid={} shard={}", e.gtid, e.a),
            TwoPcRetire => format!("2PC RETIRE gtid={} decision retired", e.gtid),
            TwoPcInDoubt => format!("2PC IN-DOUBT gtid={} shard={}", e.gtid, e.a),
            TwoPcResolve => format!(
                "2PC RESOLVE gtid={} shard={} -> {}",
                e.gtid,
                e.a,
                if e.b == 1 { "COMMIT" } else { "ABORT" }
            ),
            RecoveryStart => format!("recovery START shard={}", e.a),
            RecoveryPhase => format!("recovery PHASE {} ({} ns)", e.a, e.b),
            RecoveryDone => format!("recovery DONE shard={} ({} ns)", e.a, e.b),
            NetAccept => format!("net ACCEPT conn={}", e.a),
            NetRecv => format!("net RECV req={} conn={} op={}", e.gtid, e.a, e.b),
            NetSubmit => format!("net SUBMIT req={} conn={} op={}", e.gtid, e.a, e.b),
            NetSettle => format!("net SETTLE req={} conn={} ({} ns)", e.gtid, e.a, e.b),
            NetBusy => format!(
                "net BUSY req={} conn={} ({})",
                e.gtid,
                e.a,
                if e.b == 1 {
                    "store backpressure"
                } else {
                    "window overflow"
                }
            ),
            NetClose => format!("net CLOSE conn={} served={}", e.a, e.b),
            Checkpoint => format!("log CHECKPOINT cleared={} ({} ns)", e.a, e.b),
        };
        format!("[{:>8}] t{:02} {}", e.seq, e.thread, what)
    }

    /// Renders the full merged timeline.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== rewind-obs trace dump: {} events ({} dropped) ===",
            self.events.len(),
            self.dropped
        );
        for e in &self.events {
            let _ = writeln!(s, "{}", Self::describe(e));
        }
        s
    }

    /// Renders the timeline of one global transaction: every 2PC event with
    /// that gtid, in global order — the per-gtid forensic view.
    pub fn render_gtid(&self, gtid: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "--- gtid {gtid} timeline ---");
        for e in self.events.iter().filter(|e| e.gtid == gtid) {
            let _ = writeln!(s, "{}", Self::describe(e));
        }
        s
    }

    /// Renders a per-gtid forensic section for every global transaction in
    /// the dump (what test oracles print on failure).
    pub fn render_forensics(&self) -> String {
        let mut s = self.render();
        for gtid in self.gtids() {
            s.push('\n');
            s.push_str(&self.render_gtid(gtid));
        }
        s
    }

    /// Writes the full forensic rendering to `$REWIND_TRACE_DUMP_DIR/<tag>.txt`
    /// if that environment variable is set (how the CI crash-stress job
    /// collects dumps from failing seeds), creating the directory if needed.
    ///
    /// Returns `Ok(None)` when the variable is unset, `Ok(Some(path))` on a
    /// successful write, and the underlying I/O error otherwise — dumps are
    /// crash forensics, so a failure to write one must be visible to the
    /// caller, not swallowed.
    pub fn write_file(&self, tag: &str) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = std::env::var_os(DUMP_DIR_ENV) else {
            return Ok(None);
        };
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)?;
        let safe: String = tag
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("{safe}.txt"));
        std::fs::write(&path, self.render_forensics())?;
        Ok(Some(path))
    }
}
