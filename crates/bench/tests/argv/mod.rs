//! The `reproduce` invocations `tests/process.rs` runs, with `DIR` for the
//! temporary directory each test makes. `reproduce`'s unit tests parse
//! every one of them, so a renamed flag fails there first.

pub const TABLE2: &[&str] = &["table2"];
pub const TABLE2_JOURNAL: &[&str] = &["table2", "--journal", "DIR"];
pub const TABLE2_RESUME: &[&str] = &["table2", "--journal", "DIR", "--resume"];
pub const SERVE: &[&str] = &[
    "serve",
    "--addr",
    "127.0.0.1:0",
    "--root",
    "DIR",
    "--slots",
    "2",
];
