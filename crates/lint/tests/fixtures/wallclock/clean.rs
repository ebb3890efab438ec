//! Fixture: the sanctioned ways to tell time. `Instant::now()` in this
//! doc comment and in the string below are prose, not clock reads.
use clio_obs::clock::Reading;

fn f(clock: &dyn clio_types::time::Clock) {
    let span: Reading = clio_obs::clock::read();
    let ts = clock.now();
    let s = "Instant::now() spelled out";
    let _ = (span, ts, s);
}
