//! Fixture: configuration smuggled in through the environment.
use std::env;

pub struct Config {
    pub group_commit: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            group_commit: std::env::var("CLIO_PIPELINE").map_or(true, |v| v != "0"),
        }
    }
}

fn more() {
    let _ = env::var_os("HOME");
    for (k, v) in env::vars() {
        let _ = (k, v);
    }
}
