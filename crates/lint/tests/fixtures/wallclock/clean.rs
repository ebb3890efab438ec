//! Fixture: the sanctioned ways to tell and to spend time.
//! `Instant::now()` and `thread::sleep` in this doc comment and in the
//! strings below are prose, not clock reads or sleeps.
use clio_obs::clock::Reading;

fn f(clock: &dyn clio_types::time::Clock) {
    let span: Reading = clio_obs::clock::read();
    let ts = clock.now();
    let s = "Instant::now() spelled out";
    clio_obs::clock::hold(5);
    let t = "std::thread::sleep(d) spelled out";
    let _ = (span, ts, s, t);
}
