//! Warn-once structured logging.
//!
//! Long-lived processes (the serve daemon foremost) can hit the same
//! degraded-but-survivable condition thousands of times — a missing
//! index sidecar, a failed overlay rebuild. Raw `eprintln!`s would
//! flood stderr and make byte comparisons of captured CLI output
//! unstable, so every such warning goes through [`warn_once`]: the
//! first occurrence of a *key* prints one structured line, repeats are
//! counted silently.
//!
//! The key names the condition class (`"space.rebuild"`,
//! `"persist.sidecar-missing"`); the message carries the
//! instance detail. Keys are process-global: a condition warns once per
//! process lifetime, not once per call site.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Emitted keys with their occurrence counts. A `BTreeMap` so
/// [`warning_counts`] reports in deterministic key order.
static EMITTED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    // A panic while holding the lock can only poison a map of
    // counters; the data is still coherent, so keep serving it.
    EMITTED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Logs `message` to stderr the *first* time `key` is seen in this
/// process; later occurrences only bump the key's counter. Returns
/// whether the line was actually printed.
///
/// The printed line is structured as `typilus: warning[<key>]:
/// <message>` so harnesses can match on the stable key rather than the
/// free-form message.
pub fn warn_once(key: &str, message: &str) -> bool {
    let mut emitted = registry();
    let count = emitted.entry(key.to_string()).or_insert(0);
    *count += 1;
    if *count == 1 {
        eprintln!("typilus: warning[{key}]: {message}");
        true
    } else {
        false
    }
}

/// How many times `key` has been raised (0 if never).
pub fn warning_count(key: &str) -> u64 {
    registry().get(key).copied().unwrap_or(0)
}

/// Every raised key with its occurrence count, in key order — the
/// serve daemon's `stats` reply includes this so suppressed repeats
/// stay observable.
pub fn warning_counts() -> Vec<(String, u64)> {
    registry().iter().map(|(k, &v)| (k.clone(), v)).collect()
}

/// Clears the emitted-key registry so the next [`warn_once`] per key
/// prints again. Test support; production code never needs it.
pub fn reset_warnings() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that reset it must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn first_occurrence_prints_then_counts() {
        let _guard = serial();
        reset_warnings();
        assert!(warn_once("test.condition", "first"));
        assert!(!warn_once("test.condition", "second"));
        assert!(!warn_once("test.condition", "third"));
        assert_eq!(warning_count("test.condition"), 3);
        assert!(warn_once("test.other", "different key prints"));
        assert_eq!(warning_count("test.never"), 0);
    }

    #[test]
    fn reset_reopens_keys() {
        let _guard = serial();
        reset_warnings();
        assert!(warn_once("test.reset", "a"));
        reset_warnings();
        assert!(warn_once("test.reset", "b"));
    }

    #[test]
    fn counts_come_back_in_key_order() {
        let _guard = serial();
        reset_warnings();
        warn_once("test.b", "x");
        warn_once("test.a", "y");
        warn_once("test.a", "z");
        let counts = warning_counts();
        assert_eq!(
            counts,
            vec![("test.a".to_string(), 2), ("test.b".to_string(), 1)]
        );
    }
}
