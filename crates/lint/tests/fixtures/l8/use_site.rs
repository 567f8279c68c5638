//@ crate: benchmark
// Fixture: a use-site file, like `benchmark/src/main.rs`. It names the
// negative and allow fixtures' API and is never linted itself.
pub fn l8_only_in_the_use_site() {
    let r = L8UsedByTheBenchmark { l8_field: 1 };
    r.l8_used_method();
    let _ = l8_parse("1");
}
