//! The one experiment binary: `exp <figure>` selects a table printer by
//! name, and a name it does not know is an error that says which it does.

use std::process::{Command, Output};

const NAMES: [&str; 13] = [
    "ablation",
    "chaos",
    "combined",
    "e2e",
    "fig1_fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "price",
];

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("the exp binary runs")
}

fn lines(bytes: &[u8]) -> Vec<&str> {
    std::str::from_utf8(bytes)
        .expect("exp prints UTF-8")
        .lines()
        .collect()
}

#[test]
fn list_prints_the_thirteen_names() {
    let out = exp(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(lines(&out.stdout), NAMES);
}

#[test]
fn an_unknown_name_exits_2_with_the_list_on_stderr() {
    for args in [&["fig10"][..], &[]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(lines(&out.stderr), NAMES, "{args:?}");
    }
}

#[test]
fn a_known_name_prints_its_markdown_table() {
    let out = exp(&["fig3"]);
    assert_eq!(out.status.code(), Some(0));
    let printed = lines(&out.stdout);
    assert!(printed[0].starts_with("## E3"), "{:?}", printed[0]);
    let header = printed
        .iter()
        .position(|l| *l == "| n | crashes | stabilization | ALIVE msgs |")
        .expect("the table header");
    assert!(printed[header + 1].starts_with("|---"));
    // Six sizes, three crash counts each.
    let rows = &printed[header + 2..];
    assert_eq!(rows.len(), 18);
    assert!(rows.iter().all(|r| r.matches('|').count() == 5), "{rows:?}");
}

#[test]
fn a_resume_flag_without_a_checkpoint_dir_exits_2_before_sweeping() {
    for flag in ["--resume", "--verify-resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(["chaos", flag])
            .env("CHAOS_SWEEP_SCENARIOS", "1")
            .output()
            .expect("the exp binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--checkpoint-dir"), "{flag}: {stderr}");
    }
}
