//! Known-bad fixture: service-sleep must fire on real-time blocking in
//! service-path code (ca-recsys sources only).
//! Decoy: thread::sleep in this comment must stay silent.

fn qualified_backoff() {
    std::thread::sleep(std::time::Duration::from_millis(10)); // MARK: qualified sleep fires
}

fn imported_backoff() {
    use std::thread;
    thread::sleep(std::time::Duration::from_secs(1)); // MARK: imported sleep fires
}

fn decoy() -> &'static str {
    "calling thread::sleep(d) in a string must stay silent"
}
