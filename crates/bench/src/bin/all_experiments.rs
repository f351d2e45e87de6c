//! Runs every experiment in the paper plus the extra ablations, printing
//! each table — the one-shot regeneration entry point for the paper's
//! figures (README.md, "Benchmarks").

fn main() {
    let scale = pipellm_bench::scale_from_args();
    let reps = if std::env::args().any(|a| a == "--paper") {
        10_000
    } else {
        256
    };
    println!("{}", pipellm_bench::fig02::run(reps));
    for table in pipellm_bench::fig03::run(scale) {
        println!("{table}");
    }
    for table in pipellm_bench::fig07::run(scale) {
        println!("{table}");
    }
    for table in pipellm_bench::fig08::run(scale) {
        println!("{table}");
    }
    println!("{}", pipellm_bench::fig09::run(scale));
    println!("{}", pipellm_bench::fig10::run(scale));
    for table in pipellm_bench::ablations::run(scale) {
        println!("{table}");
    }
}
