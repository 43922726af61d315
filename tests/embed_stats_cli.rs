//! `cubemesh embed --stats` observes the embed and must not change the
//! work: the same result line as a plain run, and every router call the
//! snapshot shows happens inside `construct` (the catalog build routes
//! its factor), none in a pass over the finished embedding.

use std::process::Command;

#[test]
fn stats_run_does_the_plain_runs_work() {
    let embed = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_cubemesh"))
            .args(["embed", "5", "6", "7"])
            .args(extra)
            .env_remove("CUBEMESH_STATS")
            .output()
            .expect("cubemesh binary runs");
        assert!(out.status.success());
        let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
        (text(out.stdout), text(out.stderr))
    };
    let ((plain, _), (stats, snapshot)) = (embed(&[]), embed(&["--stats"]));
    assert_eq!(plain.lines().next(), stats.lines().next());
    // Snapshot lines read `name value` (counters) or `name n=count …`.
    let value = |name: &str| -> Option<u64> {
        snapshot.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next()? == name).then_some(())?;
            let v = words.next()?;
            v.strip_prefix("n=").unwrap_or(v).parse().ok()
        })
    };
    assert!(value("span.construct").is_some(), "{snapshot}");
    assert!(!snapshot.contains("\n  span.router."), "{snapshot}");
    let nested = value("span.construct/catalog.build/router.balanced");
    assert_eq!(value("router.balanced.calls"), nested, "{snapshot}");
}
