//! Oversized but well-formed job lines, served by the real `gaserved`
//! binary in a child process. An allocation failure aborts the process
//! (no unwinding, so no panic isolation), which would kill an in-process
//! test harness; here it shows up as a nonzero exit instead.
//!
//! Every line passes the wire parser and the Table III ranges, and each
//! asks for about 5·10¹¹ fitness evaluations. Admission must refuse it
//! with one typed `invalid_job` line before any run allocates.

use std::path::PathBuf;
use std::process::Command;

/// One oversized line per backend: 4·10⁹ generations at pop 128, solo
/// on the 16-bit backends, at width 32 on `rtl32`, and as an island
/// job on `bitsim64`.
const LINES: [(&str, &str); 5] = [
    (
        "behavioral",
        r#"{"fn":"F2","backend":"behavioral","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}"#,
    ),
    (
        "swga",
        r#"{"fn":"F2","backend":"swga","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}"#,
    ),
    (
        "rtl",
        r#"{"fn":"F2","backend":"rtl","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}"#,
    ),
    (
        "rtl32",
        r#"{"fn":"F2","backend":"rtl32","width":32,"pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}"#,
    ),
    (
        "bitsim64",
        r#"{"fn":"F2","backend":"bitsim64","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7,"islands":2,"epoch":4,"epochs":1000000000}"#,
    ),
];

fn scratch_dir(backend: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ga_serve_oversized_{backend}_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_backend_answers_an_oversized_line_with_one_typed_error() {
    for (backend, line) in LINES {
        let dir = scratch_dir(backend);
        let input = dir.join("jobs.jsonl");
        let out = dir.join("results.jsonl");
        std::fs::write(&input, format!("{line}\n")).expect("write input");
        let status = Command::new(env!("CARGO_BIN_EXE_gaserved"))
            .arg("--input")
            .arg(&input)
            .arg("--out")
            .arg(&out)
            .args(["--threads", "1"])
            .env("GA_BENCH_OUT", &dir)
            .stderr(std::process::Stdio::null())
            .status()
            .expect("gaserved starts");
        assert!(status.success(), "{backend}: gaserved exited with {status}");
        let results = std::fs::read_to_string(&out).expect("results written");
        let lines: Vec<&str> = results.lines().collect();
        assert_eq!(lines.len(), 1, "{backend}: {results}");
        let want = format!(r#"{{"job":0,"backend":"{backend}","ok":false,"error":"invalid_job","#);
        assert!(lines[0].starts_with(&want), "{backend}: {}", lines[0]);
        assert!(
            lines[0].contains("admission bound"),
            "{backend}: {}",
            lines[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
