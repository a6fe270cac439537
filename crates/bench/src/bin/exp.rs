//! `exp <figure> [flags]` prints one figure's tables; `exp --list` names
//! the figures. An unknown or missing figure exits 2 with the same list
//! on stderr.

use homonym_bench::figures;

fn main() {
    let names: Vec<&str> = figures::ALL.iter().map(|&(name, _)| name).collect();
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--list") {
        println!("{}", names.join("\n"));
        return;
    }
    match figures::ALL
        .iter()
        .find(|&&(name, _)| Some(name) == arg.as_deref())
    {
        Some((_, print_tables)) => print_tables(),
        None => {
            eprintln!("{}", names.join("\n"));
            std::process::exit(2);
        }
    }
}
