//! Crash flight recorder: a bounded in-memory ring of recent structured
//! events — net reconnects, supervisor scaling actions, fault injections —
//! cheap enough to leave on everywhere, dumped only when something goes
//! wrong (a panic, a failed chaos seed, or an explicit `/flightrecorder`
//! scrape). The last-N-events context turns a bare assertion failure in CI
//! into a story of what the process was doing just before.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Default event retention (overridable via `OBS_FLIGHT_CAPACITY`).
const DEFAULT_CAPACITY: usize = 2048;

/// One recorded state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Unix nanoseconds at record time (comparable across processes).
    pub ts_unix_ns: u64,
    /// Originating subsystem, e.g. `"net"`, `"supervisor"`, `"faultsim"`.
    pub subsystem: String,
    /// Free-form description of the transition.
    pub message: String,
}

struct Ring {
    events: VecDeque<FlightEvent>,
    capacity: usize,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        let capacity = std::env::var("OBS_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        Mutex::new(Ring {
            events: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity,
        })
    })
}

/// Records one event (see also the [`crate::flight_event!`] macro). Subject
/// to the global kill switch like every other recording site.
pub fn record(subsystem: &str, message: impl Into<String>) {
    if !crate::enabled() {
        return;
    }
    let event = FlightEvent {
        ts_unix_ns: crate::unix_now_ns(),
        subsystem: subsystem.to_string(),
        message: message.into(),
    };
    crate::counter("obs.flight.events_total").inc();
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    if ring.events.len() == ring.capacity {
        ring.events.pop_front();
    }
    ring.events.push_back(event);
}

/// Snapshot of the retained events, oldest first.
pub fn events() -> Vec<FlightEvent> {
    let ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.events.iter().cloned().collect()
}

/// Empties the recorder (tests and targeted captures).
pub fn clear() {
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.events.clear();
}

/// Renders the retained events as JSON lines, oldest first.
pub fn to_json() -> String {
    crate::export::json_lines(events().into_iter().map(|event| {
        crate::export::object([
            ("ts_unix_ns", event.ts_unix_ns.into()),
            ("subsystem", event.subsystem.into()),
            ("message", event.message.into()),
        ])
    }))
}

/// Writes the JSON-lines dump to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_to(path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path.as_ref())?;
    file.write_all(to_json().as_bytes())?;
    file.flush()
}

/// Where the panic hook writes its dump: `$OBS_FLIGHT_DIR/` if set (created
/// on demand), else the working directory, named `flight-<pid>.json`.
pub fn default_dump_path() -> PathBuf {
    let name = format!("flight-{}.json", std::process::id());
    match std::env::var_os("OBS_FLIGHT_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            let _ = std::fs::create_dir_all(&dir);
            dir.join(name)
        }
        _ => PathBuf::from(name),
    }
}

/// Installs a panic hook (once per process, chaining the previous hook)
/// that dumps the flight recorder to [`default_dump_path`] before the
/// process dies, so a crash ships its preceding state transitions.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let path = default_dump_path();
            match dump_to(&path) {
                Ok(()) => eprintln!("flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_bounded_and_renders_json() {
        record("test", "first event");
        record("test", "second \"quoted\" event");
        let events = events();
        let ours: Vec<&FlightEvent> = events.iter().filter(|e| e.subsystem == "test").collect();
        assert!(ours.len() >= 2);
        assert!(ours[0].ts_unix_ns <= ours[1].ts_unix_ns);

        let json = to_json();
        let line = json
            .lines()
            .find(|l| l.contains("quoted"))
            .expect("event line present");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"quoted\\\""));
        assert!(line.contains("\"subsystem\":\"test\""));
    }

    #[test]
    fn ring_is_bounded() {
        let capacity = ring().lock().unwrap_or_else(|e| e.into_inner()).capacity;
        // Retried because a concurrent test may briefly flip the global kill
        // switch, which silently skips some of our records.
        for _ in 0..5 {
            for i in 0..capacity + 50 {
                record("test.bound", format!("event {i}"));
            }
            let msgs: Vec<String> = events().into_iter().map(|e| e.message).collect();
            assert!(
                msgs.len() <= capacity,
                "{} retained, cap {capacity}",
                msgs.len()
            );
            if msgs.contains(&format!("event {}", capacity + 49)) {
                // Newest survived; oldest must have been evicted.
                assert!(!msgs.contains(&"event 0".to_string()));
                return;
            }
        }
        panic!("newest flight event never retained");
    }

    #[test]
    fn dump_writes_file() {
        record("test.dump", "persist me");
        let path =
            std::env::temp_dir().join(format!("obs-flight-test-{}.json", std::process::id()));
        dump_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("persist me"));
        let _ = std::fs::remove_file(&path);
    }
}
