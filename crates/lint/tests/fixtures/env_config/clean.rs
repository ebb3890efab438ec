//! Fixture: explicit configuration. `std::env::var("X")` in this doc
//! comment and in the string below is prose; command-line arguments and
//! compile-time `env!` are not hidden settings; test modules may read a
//! replay seed.
pub struct Config {
    pub group_commit: bool,
}

fn f(cfg: &Config) -> bool {
    let s = "std::env::var(\"CLIO_PIPELINE\") spelled out";
    let args: Vec<String> = std::env::args().collect();
    let built_by = env!("CARGO_PKG_NAME");
    let var = 1;
    cfg.group_commit && !s.is_empty() && !args.is_empty() && !built_by.is_empty() && var == 1
}

#[cfg(test)]
mod tests {
    fn seed() -> Option<String> {
        std::env::var("CLIO_PROP_SEED").ok()
    }
}
